//! Receiver-side share reassembly (§V).
//!
//! Without reliable share transport, shares of many symbols are in flight
//! at once: loss, reordering, and differing channel rates interleave
//! them arbitrarily. The receiver buffers partial symbols in a table and,
//! borrowing from IP fragment reassembly, bounds that table three ways:
//!
//! * **timeout eviction** — a partial symbol older than the timeout is
//!   abandoned (its remaining shares are presumed lost);
//! * **memory cap** — when buffered share bytes exceed the cap, the
//!   oldest partial symbols are evicted first;
//! * **resolution cap** — completed/evicted symbol ids are remembered
//!   (so late duplicates read as stale, not fresh) in a map bounded by
//!   [`with_resolved_cap`](ReassemblyTable::with_resolved_cap),
//!   evicting oldest-first, so memory stays flat on unbounded runs.
//!
//! A parked share's bytes belong to its partial symbol, in a buffer the
//! [`Partials`] slab recycles: a completed or evicted symbol's buffers
//! are emptied onto the slab's spare list, and the next share parked
//! takes one from there. The share that completes a symbol is never
//! parked — the symbol is reconstructed from the parked shares and from
//! that one where its datagram lies, straight into a buffer of a
//! [`BufferPool`] — so the steady-state receive path performs no heap
//! allocation (see [`accept`](ReassemblyCore::accept)).
//!
//! Whose slab and pool those are depends on the host.
//! [`ReassemblyCore`] is the table with the partial symbols left out:
//! every call that touches them borrows a [`Partials`] slab, so the
//! tables of ten thousand sessions park their partial symbols in the
//! one slab of the shard that hosts them, and hold no buffer of their
//! own while nothing is pending; [`accept`](ReassemblyCore::accept)
//! also borrows the pool it rebuilds a symbol in. [`ReassemblyTable`] is
//! the same core next to a slab and a pool it owns.
//!
//! # What a timeout costs
//!
//! The timeout is one value per table, so deadline order is insertion
//! order and nothing here scans. Each table links its own entries of
//! the slab into a list in that order, and a symbol that completes
//! leaves the list at once. [`sweep`](ReassemblyTable::sweep) pops
//! expired partials off the front of the list — `O(evicted)`, `O(1)`
//! when nothing expired — and
//! [`next_sweep_at`](ReassemblyTable::next_sweep_at) tells a driver the
//! first instant a sweep can evict anything, so it need not call before.
//! Resolution records are never swept at all: sweeps belong on the grid
//! of multiples of [`sweep_period`](ReassemblyCore::sweep_period), a
//! record is forgotten at the first grid instant more than `2 × timeout`
//! after its stamp, and the table applies that rule itself when a share
//! is offered — the oldest records are dropped from the front of their
//! ring, amortized `O(1)` a symbol — whether or not anyone swept then.
//!
//! # What a share costs
//!
//! One probe. Everything a direction knows of a sequence number — that
//! some of its shares are parked, or since when it has been done with —
//! is one 16-byte slot of one open-addressed table (`SeqTable`): the
//! number, and a word that is a resolution stamp or the index of the
//! partial symbol in the host's slab. An arriving share hashes its
//! number once and walks at most a few neighbouring slots of one block;
//! the share that completes a symbol, and the sweep or memory cap that
//! evicts one, turn the word from index into stamp where it stands; and
//! forgetting a record reads its stamp from the slot it then clears.
//! Slab entries keep their share lists when they are freed, and their
//! share buffers go to the slab's spare list, so parking a share
//! allocates nothing once the host has seen its peak.
//!
//! The table is never more than half full, so linear probing stays
//! short, and a deleted record leaves no tombstone: the records probing
//! past it are shifted back over the hole. A table without tombstones
//! never rehashes to be rid of them, so it allocates exactly when its
//! occupancy passes a new power of two, never at a moment the
//! per-process hash seed picks. The home slot comes from
//! [`mcss_base::hash`]'s seeded hasher: a peer that chooses sequence
//! numbers cannot aim them at one cluster.

use std::collections::VecDeque;
use std::hash::BuildHasher as _;
use std::mem;

use mcss_base::hash::IntBuildHasher;
use mcss_base::{BufferPool, SimTime};
use mcss_codec::CodecId;

use crate::wire::ShareRef;

/// Outcome of offering one share to the table via
/// [`accept_into`](ReassemblyTable::accept_into).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The share was buffered; the symbol is still incomplete.
    Stored,
    /// The share completed its symbol; the payload comes with it.
    Completed,
    /// A share with this abscissa was already buffered for this symbol.
    Duplicate,
    /// The symbol was already completed or evicted; the share is stale.
    Stale,
    /// The share disagreed with its siblings (length, threshold,
    /// multiplicity, or codec) and was rejected.
    Inconsistent,
}

/// Counters kept by the reassembly table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Symbols successfully reconstructed.
    pub completed: u64,
    /// Partial symbols evicted by the timeout.
    pub timeout_evictions: u64,
    /// Partial symbols evicted by the memory cap.
    pub memory_evictions: u64,
    /// Duplicate shares discarded.
    pub duplicates: u64,
    /// Stale shares (for already-completed or evicted symbols).
    pub stale: u64,
    /// Shares rejected for disagreeing with buffered siblings.
    pub inconsistent: u64,
    /// Resolution records evicted by the resolution cap (distinct from
    /// the routine forgetting of records older than twice the timeout).
    pub resolved_evictions: u64,
    /// Symbols that reached their threshold but whose codec decode
    /// failed (malformed share payloads); the symbol is resolved (late
    /// shares read as stale) and the caller sees `Inconsistent`.
    /// Shamir's Lagrange interpolation is total, so only non-Shamir
    /// codecs can bump this.
    pub decode_failures: u64,
}

/// A partial symbol: the shares parked so far, and its place in the
/// list of its table's partials.
#[derive(Debug)]
struct Pending {
    codec: CodecId,
    k: u8,
    m: u8,
    /// `(abscissa, share data)` in arrival order.
    shares: Vec<(u8, Vec<u8>)>,
    first_seen: SimTime,
    /// The symbol's sequence number, which names its table slot.
    seq: u64,
    /// Parked share bytes: at most 255 shares of a 16-bit length.
    bytes: u32,
    /// The neighbours in the table's list, oldest first ([`NO_PARTIAL`]
    /// past either end). In a freed entry, `next` is the next free one.
    prev: u32,
    next: u32,
}

/// The partial symbols of every table a host keeps, with the bytes of
/// their parked shares: one slab of entries with a free list, in which
/// each table links its own entries in deadline order, and one spare
/// list of emptied share buffers. A freed entry keeps its share list's
/// capacity and gives its share buffers to the spare list, so parking a
/// share allocates nothing once the slab has seen the host's peak of
/// partials and parked shares at once.
///
/// A host lends one slab to all of its tables: a table must be lent the
/// same slab on every call, and a table dropped while partials are
/// pending leaves their entries taken.
#[derive(Debug)]
pub struct Partials {
    entries: Vec<Pending>,
    /// The most recently freed entry ([`NO_PARTIAL`] without one); the
    /// free list runs on through [`Pending::next`].
    free: u32,
    /// Emptied share buffers, which the next shares parked fill.
    spare: Vec<Vec<u8>>,
}

impl Default for Partials {
    fn default() -> Self {
        Partials {
            entries: Vec::new(),
            free: NO_PARTIAL,
            spare: Vec::new(),
        }
    }
}

impl Partials {
    fn get(&self, index: u32) -> &Pending {
        &self.entries[index as usize]
    }

    fn get_mut(&mut self, index: u32) -> &mut Pending {
        &mut self.entries[index as usize]
    }

    /// Files `entry`, whose share list is empty, at the newest end of
    /// `list`: in a freed entry with that entry's share list, or else in
    /// a new one whose list reserves the `k − 1` shares a lossless flow
    /// parks. Returns its index.
    fn insert(&mut self, list: &mut List, mut entry: Pending) -> u32 {
        (entry.prev, entry.next) = (list.newest, NO_PARTIAL);
        let index = if self.free == NO_PARTIAL {
            entry.shares.reserve_exact(usize::from(entry.k) - 1);
            self.entries.push(entry);
            u32::try_from(self.entries.len() - 1).expect("fewer than 2³² partials")
        } else {
            let index = self.free;
            let freed = self.get_mut(index);
            entry.shares = mem::take(&mut freed.shares);
            self.free = mem::replace(freed, entry).next;
            index
        };
        match list.newest {
            NO_PARTIAL => list.oldest = index,
            newest => self.get_mut(newest).next = index,
        }
        list.newest = index;
        index
    }

    /// Share buffers the slab holds, parked or spare: the most shares
    /// its tables have had parked at once.
    #[must_use]
    pub fn buffers(&self) -> usize {
        let parked: usize = self.entries.iter().map(|p| p.shares.len()).sum();
        parked + self.spare.len()
    }

    /// Parks share `x`'s `payload` with the entry at `index`, in a spare
    /// buffer if there is one.
    fn park(&mut self, index: u32, x: u8, payload: &[u8]) {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.extend_from_slice(payload);
        let entry = &mut self.entries[index as usize];
        entry.shares.push((x, buf));
        entry.bytes += u32::try_from(payload.len()).expect("a share's length is a 16-bit field");
    }

    /// Takes the entry at `index` out of `list`, empties its share
    /// buffers onto the spare list and returns the entry, its share list
    /// emptied, to the free list. Returns the bytes it had parked.
    fn remove(&mut self, list: &mut List, index: u32) -> usize {
        let free = self.free;
        let entry = &mut self.entries[index as usize];
        for (_, mut buf) in entry.shares.drain(..) {
            buf.clear();
            self.spare.push(buf);
        }
        let (prev, next) = (entry.prev, mem::replace(&mut entry.next, free));
        let bytes = entry.bytes as usize;
        self.free = index;
        match prev {
            NO_PARTIAL => list.oldest = next,
            prev => self.get_mut(prev).next = next,
        }
        match next {
            NO_PARTIAL => list.newest = prev,
            next => self.get_mut(next).prev = prev,
        }
        bytes
    }
}

/// The ends of one table's list of entries in a [`Partials`] slab,
/// linked in insertion order, which is deadline order ([`NO_PARTIAL`]
/// while none is pending).
#[derive(Debug)]
struct List {
    oldest: u32,
    newest: u32,
}

/// Default bound on remembered resolutions; high enough that records
/// normally age out (twice the timeout) first.
pub const DEFAULT_RESOLVED_CAP: usize = 1 << 20;

/// Ends a table's list of partials and the slab's free list.
const NO_PARTIAL: u32 = u32::MAX;

/// What a table knows of a sequence number it holds a slot for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Done with (completed or evicted), remembered from this instant.
    Resolved(SimTime),
    /// Some shares are parked: the index of the partial in the slab.
    Partial(u32),
}

impl Record {
    /// Words from here up are slab indices; the nonzero ones below are
    /// stamps, one more than their nanoseconds.
    const PARTIAL: u64 = 1 << 63;

    /// The slot word for this record. A stamp saturates two nanoseconds
    /// short of 2⁶³ (292 years on the clock).
    fn pack(self) -> u64 {
        match self {
            Record::Resolved(stamp) => stamp.as_nanos().min(Self::PARTIAL - 2) + 1,
            Record::Partial(index) => Self::PARTIAL | u64::from(index),
        }
    }

    /// The record a full slot's word stands for.
    fn unpack(word: u64) -> Self {
        debug_assert_ne!(word, SeqTable::EMPTY);
        if word >= Self::PARTIAL {
            Record::Partial((word ^ Self::PARTIAL) as u32)
        } else {
            Record::Resolved(SimTime::from_nanos(word - 1))
        }
    }
}

/// A sequence number and a nonzero word about it, or an empty slot
/// (word [`SeqTable::EMPTY`]).
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    word: u64,
}

/// An open-addressed map from sequence numbers to nonzero words, the
/// one keyed store of a [`ReassemblyCore`] (module docs, "What a share
/// costs"): linear probing over a power-of-two array that is at most
/// half full and never shrinks. A word is rewritten where it stands,
/// through its slot's index.
#[derive(Debug, Default)]
struct SeqTable {
    /// Empty until the first insert.
    slots: Vec<Slot>,
    len: usize,
    hasher: IntBuildHasher,
}

impl SeqTable {
    const EMPTY: u64 = 0;
    /// Slots the first insert allocates: one cache line.
    const FIRST_SLOTS: usize = 4;

    /// Where probing for `seq` starts. All ones over an empty array, an
    /// index no slot has.
    #[inline]
    fn home(&self, seq: u64) -> usize {
        self.hasher.hash_one(seq) as usize & self.slots.len().wrapping_sub(1)
    }

    /// The slot holding `seq`'s record, if there is one.
    #[inline]
    fn find(&self, seq: u64) -> Option<usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = self.home(seq);
        // At most half the slots are full, so the walk meets an empty
        // one; over an empty array the first `get` ends it.
        loop {
            let slot = self.slots.get(at)?;
            if slot.word == Self::EMPTY {
                return None;
            }
            if slot.seq == seq {
                return Some(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// [`find`](Self::find), with the record the slot's word stands for.
    #[inline]
    fn get(&self, seq: u64) -> Option<(usize, Record)> {
        let at = self.find(seq)?;
        Some((at, Record::unpack(self.slots[at].word)))
    }

    /// Adds a record for `seq`, which must have none. Doubles the array
    /// first if the record would leave it more than half full; no other
    /// operation allocates.
    fn insert(&mut self, seq: u64, word: u64) {
        debug_assert!(word != Self::EMPTY && self.find(seq).is_none());
        if (self.len + 1) * 2 > self.slots.len() {
            let doubled = (self.slots.len() * 2).max(Self::FIRST_SLOTS);
            let empty = Slot {
                seq: 0,
                word: Self::EMPTY,
            };
            let old = mem::replace(&mut self.slots, vec![empty; doubled]);
            for slot in old.into_iter().filter(|slot| slot.word != Self::EMPTY) {
                self.place(slot);
            }
        }
        self.place(Slot { seq, word });
        self.len += 1;
    }

    /// Writes `slot` into the first empty slot from its home.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(slot.seq);
        while self.slots[at].word != Self::EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Deletes the record in slot `at`. Every record between it and the
    /// cluster's end that probing reaches only across the hole moves
    /// back into it (and leaves a hole of its own, treated likewise), so
    /// each stays reachable from its home and no marker is left behind.
    /// Moves slots: indices obtained before the call are void.
    fn remove_at(&mut self, at: usize) {
        debug_assert_ne!(self.slots[at].word, Self::EMPTY);
        let mask = self.slots.len() - 1;
        let mut hole = at;
        let mut next = (hole + 1) & mask;
        while self.slots[next].word != Self::EMPTY {
            // Distances walked forward around the array: the record at
            // `next` may fill the hole unless its home lies past it.
            let from_home = next.wrapping_sub(self.home(self.slots[next].seq)) & mask;
            if from_home >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole].word = Self::EMPTY;
        self.len -= 1;
    }
}

/// The reassembly table without its buffers: all of the table's state
/// and logic, with the [`Partials`] slab that holds the partial symbols
/// and their share data lent by the caller on each call that touches
/// them, and the [`BufferPool`] a completed symbol is rebuilt in lent to
/// [`accept`](Self::accept).
///
/// The table's slots and list index the lent slab, so a core must be
/// lent the same slab every time; it holds no pool buffer between
/// calls, so any pool will do. With nothing pending it holds no entry;
/// a core dropped while partials are pending leaves their entries taken
/// in that slab.
#[derive(Debug)]
pub struct ReassemblyCore {
    timeout: SimTime,
    capacity_bytes: usize,
    resolved_cap: usize,
    buffered_bytes: usize,
    /// A slot per sequence number that is partial or remembered as
    /// resolved (never both). Holds no resolution record the sweep grid
    /// has forgotten by the latest `now` the table was shown.
    table: SeqTable,
    live_partials: usize,
    /// This table's entries in the lent slab.
    list: List,
    /// Records stamped with the instant they were made, in insertion
    /// order, which is the order they are forgotten in.
    resolved_order: VecDeque<u64>,
    /// Records ever taken off the front of `resolved_order`.
    resolved_popped: u64,
    /// Records of memory-cap evictions, which are stamped with the
    /// symbol's first share instead and so are forgotten ahead of their
    /// neighbours in `resolved_order`: `(id, records pushed to
    /// resolved_order before it)`, the second placing it among them for
    /// oldest-first eviction at the resolved cap.
    evicted_order: VecDeque<(u64, u64)>,
    /// Earliest instant the grid forgets a record now held
    /// ([`SimTime::MAX`] with none held); may run early, never late.
    forget_at: SimTime,
    /// Latest explicit [`sweep`](Self::sweep).
    last_sweep: SimTime,
    /// Buffering time of the most recently completed symbol.
    last_completed_residency: SimTime,
    stats: ReassemblyStats,
}

impl ReassemblyCore {
    /// Creates a table core with the given eviction timeout and memory
    /// cap (and the [`DEFAULT_RESOLVED_CAP`] on resolution records).
    #[must_use]
    pub fn new(timeout: SimTime, capacity_bytes: usize) -> Self {
        ReassemblyCore {
            timeout,
            capacity_bytes,
            resolved_cap: DEFAULT_RESOLVED_CAP,
            buffered_bytes: 0,
            table: SeqTable::default(),
            live_partials: 0,
            list: List {
                oldest: NO_PARTIAL,
                newest: NO_PARTIAL,
            },
            resolved_order: VecDeque::new(),
            resolved_popped: 0,
            evicted_order: VecDeque::new(),
            forget_at: SimTime::MAX,
            last_sweep: SimTime::ZERO,
            last_completed_residency: SimTime::ZERO,
            stats: ReassemblyStats::default(),
        }
    }

    /// Bounds the resolved-symbol memory to `cap` records, evicting
    /// oldest-first; an evicted record makes a late duplicate of that
    /// symbol read as fresh rather than stale (exactly as after the
    /// record has aged out).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_resolved_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "resolved cap must be positive");
        self.resolved_cap = cap;
        self
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Number of partial symbols currently buffered.
    #[must_use]
    pub fn pending_symbols(&self) -> usize {
        self.live_partials
    }

    /// Buffered share bytes.
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Number of remembered resolutions (bounded by the resolved cap).
    #[must_use]
    pub fn resolved_records(&self) -> usize {
        self.table.len - self.live_partials
    }

    /// How long the most recently completed symbol sat in the table
    /// (first share seen to reconstruction; zero for `k = 1` symbols,
    /// which never buffer). Read this right after a `Completed` outcome
    /// to sample reassembly residency without changing the accept API.
    #[must_use]
    pub fn last_completed_residency(&self) -> SimTime {
        self.last_completed_residency
    }

    /// Spacing of the sweep grid: a quarter of the timeout, at least a
    /// millisecond. A driver that sweeps only at multiples of it (as
    /// [`next_sweep_at`](Self::next_sweep_at) proposes) evicts every
    /// partial at the instant a sweep on every multiple would have.
    #[must_use]
    pub fn sweep_period(&self) -> SimTime {
        SimTime::from_nanos((self.timeout.as_nanos() / 4).max(1_000_000))
    }

    /// The first instant on the sweep grid at which
    /// [`sweep`](Self::sweep) evicts the oldest partial symbol; `None`
    /// while nothing is buffered, when no sweep is needed at all.
    /// `partials` is the slab the table is lent.
    #[must_use]
    pub fn next_sweep_at(&self, partials: &Partials) -> Option<SimTime> {
        (self.list.oldest != NO_PARTIAL).then(|| {
            let first_seen = partials.get(self.list.oldest).first_seen;
            self.grid_after(first_seen.saturating_add(self.timeout))
        })
    }

    /// The last multiple of the sweep period at or before `t`.
    fn grid_floor(&self, t: SimTime) -> SimTime {
        let period = self.sweep_period().as_nanos();
        SimTime::from_nanos(t.as_nanos() / period * period)
    }

    /// The first multiple of the sweep period strictly after `t`.
    fn grid_after(&self, t: SimTime) -> SimTime {
        self.grid_floor(t).saturating_add(self.sweep_period())
    }

    /// Offers an in-place decoded share to the table at time `now`,
    /// with its partial symbols, and the shares parked with them, in
    /// `partials`.
    ///
    /// With [`AcceptOutcome::Completed`] comes the reconstructed payload,
    /// in a buffer taken from `pool` that is the caller's to put back;
    /// with every other outcome, `None` — a share that does not complete
    /// its symbol costs no pool buffer. Steady state, this path performs
    /// no heap allocation: the data of a share that leaves its symbol
    /// incomplete goes into a spare buffer of `partials`, reconstruction
    /// reads the completing share in place and writes into the taken
    /// buffer's capacity, and the completed symbol's entry and share
    /// buffers return to `partials`.
    ///
    /// Before a share is parked, the oldest other partials are evicted
    /// until it fits under the memory cap. A share of a symbol that
    /// cannot fit even alone evicts that symbol too (a memory eviction)
    /// and reads as [`AcceptOutcome::Stale`], as its siblings will.
    pub fn accept(
        &mut self,
        pool: &mut BufferPool,
        partials: &mut Partials,
        share: &ShareRef<'_>,
        now: SimTime,
    ) -> (AcceptOutcome, Option<Vec<u8>>) {
        let (seq, codec, k, m, x) = (share.seq(), share.codec(), share.k(), share.m(), share.x());
        let payload = share.payload();
        if now >= self.forget_at {
            // Every sweep-grid instant up to `now` has passed.
            self.forget(self.grid_floor(now));
        }
        let Some((at, record)) = self.table.get(seq) else {
            if k == 1 {
                // Threshold 1: a single share carries the symbol, and
                // nothing is buffered. A share the codec cannot decode
                // (a garbled wrapper) must not resolve the symbol.
                let mut out = pool.take();
                if codec
                    .reconstruct_with(1, m, 1, |_| x, |_| payload, &mut out)
                    .is_err()
                {
                    pool.put(out);
                    self.stats.decode_failures += 1;
                    return (AcceptOutcome::Inconsistent, None);
                }
                self.table.insert(seq, Record::Resolved(now).pack());
                self.remember(seq, now, false);
                self.last_completed_residency = SimTime::ZERO;
                self.stats.completed += 1;
                return (AcceptOutcome::Completed, Some(out));
            }
            let partial = partials.insert(
                &mut self.list,
                Pending {
                    codec,
                    k,
                    m,
                    shares: Vec::new(),
                    first_seen: now,
                    seq,
                    bytes: 0,
                    prev: NO_PARTIAL,
                    next: NO_PARTIAL,
                },
            );
            self.live_partials += 1;
            self.table.insert(seq, Record::Partial(partial).pack());
            return self.park(partials, partial, x, payload);
        };
        let Record::Partial(partial) = record else {
            self.stats.stale += 1;
            return (AcceptOutcome::Stale, None);
        };
        let p = partials.get(partial);
        let first_len = p.shares.first().map(|(_, share)| share.len());
        if p.codec != codec
            || p.k != k
            || p.m != m
            || first_len.is_some_and(|len| len != payload.len())
        {
            self.stats.inconsistent += 1;
            return (AcceptOutcome::Inconsistent, None);
        }
        if p.shares.iter().any(|&(sx, _)| sx == x) {
            self.stats.duplicates += 1;
            return (AcceptOutcome::Duplicate, None);
        }
        let parked = p.shares.len();
        if parked + 1 < p.k as usize {
            return self.park(partials, partial, x, payload);
        }
        // The codec's rebuild over the parked shares in arrival order
        // and then this one, read where the datagram lies: it is never
        // parked. A failure (malformed payloads — Shamir's interpolation
        // is total) is surfaced as a decode failure.
        let mut out = pool.take();
        let decoded = p
            .codec
            .reconstruct_with(
                p.k,
                p.m,
                parked + 1,
                |i| p.shares.get(i).map_or(x, |&(sx, _)| sx),
                |i| p.shares.get(i).map_or(payload, |(_, share)| share),
                &mut out,
            )
            .is_ok();
        let residency = now.saturating_sub(p.first_seen);
        // Either way the symbol is done with.
        self.retire(partials, at, partial, now);
        self.remember(seq, now, false);
        if decoded {
            self.last_completed_residency = residency;
            self.stats.completed += 1;
            (AcceptOutcome::Completed, Some(out))
        } else {
            pool.put(out);
            self.stats.decode_failures += 1;
            (AcceptOutcome::Inconsistent, None)
        }
    }

    /// Parks share `x`'s `payload` with the partial at slab index
    /// `partial` once the oldest other partials have made room for it
    /// under the memory cap. A symbol that cannot fit even alone is
    /// evicted instead (a memory eviction), and the share reads as
    /// [`AcceptOutcome::Stale`], as its siblings will.
    fn park(
        &mut self,
        partials: &mut Partials,
        partial: u32,
        x: u8,
        payload: &[u8],
    ) -> (AcceptOutcome, Option<Vec<u8>>) {
        if !self.make_room(partials, payload.len(), partial) {
            let first_seen = partials.get(partial).first_seen;
            self.evict(partials, partial, first_seen, true);
            self.stats.memory_evictions += 1;
            return (AcceptOutcome::Stale, None);
        }
        partials.park(partial, x, payload);
        self.buffered_bytes += payload.len();
        (AcceptOutcome::Stored, None)
    }

    /// Ends the partial at slab index `partial`, whose slot is `at`: it
    /// leaves the table's list, its share buffers go to the slab's spare
    /// list and its entry, share list emptied, to the slab's free list,
    /// and its slot turns from partial to resolved at `stamp` where it
    /// stands. [`remember`](Self::remember) files the record.
    fn retire(&mut self, partials: &mut Partials, at: usize, partial: u32, stamp: SimTime) {
        self.buffered_bytes -= partials.remove(&mut self.list, partial);
        self.live_partials -= 1;
        self.table.slots[at].word = Record::Resolved(stamp).pack();
    }

    /// Evicts the partial symbols older than the timeout at `now`, oldest
    /// first, and forgets the resolution records older than twice the
    /// timeout. Costs `O(evicted + forgotten)`; nothing is evicted before
    /// [`next_sweep_at`](Self::next_sweep_at). `partials` is the slab
    /// the table is lent.
    pub fn sweep(&mut self, partials: &mut Partials, now: SimTime) {
        // The evictions below meet the resolved cap with the records
        // the grid instants before `now` left, not with those `now`
        // itself is about to drop.
        self.forget(self.grid_floor(now.saturating_sub(SimTime::from_nanos(1))));
        while self.list.oldest != NO_PARTIAL {
            if now.saturating_sub(partials.get(self.list.oldest).first_seen) <= self.timeout {
                break;
            }
            self.evict(partials, self.list.oldest, now, false);
            self.stats.timeout_evictions += 1;
        }
        self.last_sweep = self.last_sweep.max(now);
        self.forget(now);
    }

    /// Evicts the partial at slab index `partial`, remembering it from
    /// `stamp` on.
    fn evict(&mut self, partials: &mut Partials, partial: u32, stamp: SimTime, by_memory: bool) {
        let seq = partials.get(partial).seq;
        let Some((at, Record::Partial(_))) = self.table.get(seq) else {
            unreachable!("a listed partial has its slot");
        };
        self.retire(partials, at, partial, stamp);
        self.remember(seq, stamp, by_memory);
    }

    /// The slot and the stamp of the resolution record a ring entry
    /// stands for.
    fn record(&self, seq: u64) -> (usize, SimTime) {
        match self.table.get(seq) {
            Some((at, Record::Resolved(stamp))) => (at, stamp),
            _ => unreachable!("a ring entry has its resolution record"),
        }
    }

    /// Drops the resolution records older than twice the timeout at
    /// `reference` (a sweep-grid instant, or an explicit sweep's `now`)
    /// or at the latest explicit sweep: no share of theirs can still
    /// arrive. Stamps order `resolved_order`, so only its front is read.
    fn forget(&mut self, reference: SimTime) {
        let reference = reference.max(self.last_sweep);
        let horizon = self.timeout * 2;
        let stale = |stamp: SimTime| reference.saturating_sub(stamp) > horizon;
        let mut oldest = SimTime::MAX;
        while let Some(&seq) = self.resolved_order.front() {
            let (at, stamp) = self.record(seq);
            if !stale(stamp) {
                oldest = stamp;
                break;
            }
            self.table.remove_at(at);
            self.resolved_order.pop_front();
            self.resolved_popped += 1;
        }
        // The memory cap spares the symbol a share extends, which may be
        // older than the partials it evicts, so the memory cap's ring is
        // in the order its records were made but not always in stamp
        // order: each of its records is read. It is empty unless the cap
        // evicted something within twice the timeout.
        let table = &mut self.table;
        self.evicted_order.retain(|&(seq, _)| match table.get(seq) {
            Some((at, Record::Resolved(stamp))) if stale(stamp) => {
                table.remove_at(at);
                false
            }
            Some((_, Record::Resolved(stamp))) => {
                oldest = oldest.min(stamp);
                true
            }
            _ => unreachable!("a ring entry has its resolution record"),
        });
        self.forget_at = self.forgotten_at(oldest);
    }

    /// The sweep-grid instant that forgets a record stamped `stamp`.
    fn forgotten_at(&self, stamp: SimTime) -> SimTime {
        self.grid_after(stamp.saturating_add(self.timeout * 2))
    }

    /// Files the resolution record just written into `seq`'s slot, made
    /// at `stamp`, in the ring it is forgotten from, and holds the
    /// records to the resolved cap. `evicted` marks the memory cap's
    /// records, whose stamp is the symbol's first share (the others
    /// carry the current time). May move slots.
    fn remember(&mut self, seq: u64, stamp: SimTime, evicted: bool) {
        let may_be_oldest = if evicted {
            let before = self.resolved_popped + self.resolved_order.len() as u64;
            self.evicted_order.push_back((seq, before));
            // Its ring is not always in stamp order (see `forget`).
            true
        } else {
            self.resolved_order.push_back(seq);
            self.resolved_order.len() == 1
        };
        if may_be_oldest {
            // Behind an older record of its ring it is forgotten no
            // sooner, and `forget_at` already covers that one.
            self.forget_at = self.forget_at.min(self.forgotten_at(stamp));
        }
        // Oldest-first eviction past the cap: an evicted symbol's record
        // is older than the front of the other ring once every record
        // made before it has left that ring.
        while self.resolved_records() > self.resolved_cap {
            let old = match self.evicted_order.front() {
                Some(&(old, before)) if before <= self.resolved_popped => {
                    self.evicted_order.pop_front();
                    old
                }
                _ => {
                    self.resolved_popped += 1;
                    self.resolved_order
                        .pop_front()
                        .expect("every record is in one of the rings")
                }
            };
            let (at, _) = self.record(old);
            self.table.remove_at(at);
            self.stats.resolved_evictions += 1;
        }
    }

    /// Evicts the oldest partial symbols but the one at slab index
    /// `keep` until `incoming` more bytes fit under the cap; whether
    /// they now do.
    fn make_room(&mut self, partials: &mut Partials, incoming: usize, keep: u32) -> bool {
        let mut victim = self.list.oldest;
        while self.buffered_bytes + incoming > self.capacity_bytes {
            if victim == NO_PARTIAL {
                return false;
            }
            let Pending {
                next, first_seen, ..
            } = *partials.get(victim);
            if victim != keep {
                self.evict(partials, victim, first_seen, true);
                self.stats.memory_evictions += 1;
            }
            victim = next;
        }
        true
    }
}

/// The share reassembly table: a [`ReassemblyCore`], the slab its
/// partial symbols and their shares live in and the pool it rebuilds
/// symbols in. Counters and
/// sizes are read through the core (`table.stats()`,
/// `table.buffered_bytes()`, …).
///
/// # Examples
///
/// ```
/// use mcss_base::SimTime;
/// use mcss_codec::{CodecId, CodecScratch, ShareKey};
/// use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyTable};
/// use mcss_remicss::wire::{put_share_header_for, ShareRef};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Sender: three frames of a 2-of-3 symbol, header then share.
/// let codec = CodecId::from_env();
/// let mut frames = vec![Vec::new(); 3];
/// for (j, frame) in frames.iter_mut().enumerate() {
///     put_share_header_for(frame, codec, 0, 2, 3, j as u8 + 1, 0, codec.share_len(6, 2, 3))?;
/// }
/// let key = ShareKey::generate();
/// let mut stream = key.stream(0, false, 0);
/// codec.split_into(b"secret", 2, 3, &mut stream, &mut CodecScratch::new(), &mut frames)?;
///
/// // Receiver: any two of them rebuild it.
/// let mut table = ReassemblyTable::new(SimTime::from_millis(100), 1 << 20);
/// let mut payload = Vec::new();
/// let first = ShareRef::decode(&frames[2])?;
/// assert_eq!(table.accept_into(&first, SimTime::ZERO, &mut payload), AcceptOutcome::Stored);
/// let second = ShareRef::decode(&frames[0])?;
/// assert_eq!(table.accept_into(&second, SimTime::ZERO, &mut payload), AcceptOutcome::Completed);
/// assert_eq!(payload, b"secret");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReassemblyTable {
    core: ReassemblyCore,
    /// Rebuild buffers, recycled across symbols.
    pool: BufferPool,
    /// Partial symbols, their entries and share buffers recycled
    /// likewise.
    partials: Partials,
}

impl ReassemblyTable {
    /// Creates a table with the given eviction timeout and memory cap
    /// (and the [`DEFAULT_RESOLVED_CAP`] on resolution records).
    #[must_use]
    pub fn new(timeout: SimTime, capacity_bytes: usize) -> Self {
        ReassemblyTable {
            core: ReassemblyCore::new(timeout, capacity_bytes),
            pool: BufferPool::new(),
            partials: Partials::default(),
        }
    }

    /// Bounds the resolved-symbol memory to `cap` records (see
    /// [`ReassemblyCore::with_resolved_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_resolved_cap(mut self, cap: usize) -> Self {
        self.core = self.core.with_resolved_cap(cap);
        self
    }

    /// Rebuild buffers allocated by the internal pool; flat after warmup
    /// on the steady-state path. Parked shares live in the slab and are
    /// not counted here.
    #[must_use]
    pub fn pool_misses(&self) -> u64 {
        self.pool.misses()
    }

    /// Rebuild buffers served from the internal pool without allocating.
    #[must_use]
    pub fn pool_hits(&self) -> u64 {
        self.pool.hits()
    }

    /// [`ReassemblyCore::next_sweep_at`].
    pub fn next_sweep_at(&mut self) -> Option<SimTime> {
        self.core.next_sweep_at(&self.partials)
    }

    /// [`ReassemblyCore::accept`] over the table's own pool and slab. On
    /// [`AcceptOutcome::Completed`] the reconstructed payload is in
    /// `out`: the buffer it was rebuilt in changes places with the one
    /// the caller passed, which joins the pool. `out` is left as it was
    /// otherwise.
    pub fn accept_into(
        &mut self,
        share: &ShareRef<'_>,
        now: SimTime,
        out: &mut Vec<u8>,
    ) -> AcceptOutcome {
        let (outcome, payload) = self
            .core
            .accept(&mut self.pool, &mut self.partials, share, now);
        if let Some(mut payload) = payload {
            std::mem::swap(out, &mut payload);
            self.pool.put(payload);
        }
        outcome
    }

    /// [`ReassemblyCore::sweep`] over the table's own slab.
    pub fn sweep(&mut self, now: SimTime) {
        self.core.sweep(&mut self.partials, now);
    }
}

impl core::ops::Deref for ReassemblyTable {
    type Target = ReassemblyCore;

    fn deref(&self) -> &ReassemblyCore {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::AcceptOutcome::{Completed, Duplicate, Inconsistent, Stale, Stored};
    use super::*;
    use crate::wire::header_bytes;
    use crate::wire::testutil::share_bytes;
    use mcss_codec::CodecScratch;
    use rand::{RngExt as _, SeedableRng};
    use std::collections::HashMap;

    /// The `m` encoded share frames of one symbol, in abscissa order.
    fn frames_for(codec: CodecId, seq: u64, k: u8, m: u8, payload: &[u8]) -> Vec<Vec<u8>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seq + 1);
        let mut outs = vec![Vec::new(); m as usize];
        codec
            .split_into(payload, k, m, &mut rng, &mut CodecScratch::new(), &mut outs)
            .unwrap();
        outs.iter()
            .enumerate()
            .map(|(j, data)| share_bytes(codec, seq, (k, m, j as u8 + 1), 0, data))
            .collect()
    }

    fn frames(seq: u64, k: u8, m: u8, payload: &[u8]) -> Vec<Vec<u8>> {
        frames_for(CodecId::Shamir, seq, k, m, payload)
    }

    fn xor_frames(seq: u64, k: u8, m: u8, payload: &[u8]) -> Vec<Vec<u8>> {
        frames_for(CodecId::Xor2d, seq, k, m, payload)
    }

    /// Decodes `frame` and offers it: the verdict, and the rebuilt
    /// payload (empty unless the verdict is `Completed`).
    fn offer(t: &mut ReassemblyTable, frame: &[u8], now: SimTime) -> (AcceptOutcome, Vec<u8>) {
        let mut out = Vec::new();
        let verdict = t.accept_into(&ShareRef::decode(frame).unwrap(), now, &mut out);
        (verdict, out)
    }

    fn table() -> ReassemblyTable {
        ReassemblyTable::new(SimTime::from_millis(100), 1 << 20)
    }

    /// A table grown to `slots` slots and emptied again.
    fn emptied_table(slots: usize) -> SeqTable {
        let mut t = SeqTable::default();
        for seq in 0..slots as u64 / 2 {
            t.insert(seq, 1);
        }
        for seq in 0..slots as u64 / 2 {
            t.remove_at(t.find(seq).unwrap());
        }
        assert_eq!((t.len, t.slots.len()), (0, slots));
        t
    }

    /// The first `count` sequence numbers whose home in `t`, at its
    /// present size and under this process's seed, is `home`.
    fn homed_at(t: &SeqTable, home: usize, count: usize) -> Vec<u64> {
        let homed = (0u64..).filter(|&seq| t.home(seq) == home);
        homed.take(count).collect()
    }

    fn shuffle(keys: &mut [u64], rng: &mut rand::rngs::StdRng) {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.random_range(0..=i));
        }
    }

    /// `t` holds exactly `model`: each of its records is found, nothing
    /// in `absent` is, and no slot is full beyond them.
    fn assert_holds(t: &SeqTable, model: &HashMap<u64, u64>, absent: &[u64]) {
        assert_eq!(t.len, model.len());
        for (&seq, &word) in model {
            let at = t.find(seq).unwrap_or_else(|| panic!("{seq} lost"));
            assert_eq!(t.slots[at].word, word, "record of {seq}");
        }
        for seq in absent.iter().filter(|seq| !model.contains_key(seq)) {
            assert_eq!(t.find(*seq), None, "{seq} found after its removal");
        }
        let full = t.slots.iter().filter(|slot| slot.word != SeqTable::EMPTY);
        assert_eq!(full.count(), model.len(), "a slot was left behind");
        assert!(t.len * 2 <= t.slots.len(), "more than half full");
    }

    #[test]
    fn seq_table_matches_a_hash_map() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e);
        // Dense runs, numbers far apart, numbers equal modulo every
        // table size, the ends of the range: 256 keys to draw from.
        let universe: Vec<u64> = (0..64u64)
            .flat_map(|i| [i, i << 32, i << 12 | 7, u64::MAX - i])
            .collect();
        let mut t = SeqTable::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut slots = 0;
        for step in 0..200_000u64 {
            let seq = universe[rng.random_range(0..universe.len())];
            let word = step + 1;
            // Occupancy drifts up and down between none and all.
            let filling = (step / 5_000) % 2 == 0;
            match (t.find(seq), rng.random_range(0..4u32)) {
                (None, 0 | 1) if filling => {
                    t.insert(seq, word);
                    assert_eq!(model.insert(seq, word), None);
                }
                (None, _) => assert!(!model.contains_key(&seq), "{seq} lost"),
                (Some(at), 0) => {
                    t.slots[at].word = word;
                    assert!(model.insert(seq, word).is_some());
                }
                (Some(at), 1 | 2) if !filling => {
                    t.remove_at(at);
                    assert!(model.remove(&seq).is_some());
                }
                (Some(at), _) => assert_eq!(Some(&t.slots[at].word), model.get(&seq)),
            }
            assert_eq!(t.len, model.len());
            assert!(t.slots.len() >= slots, "the array shrank");
            slots = t.slots.len();
            if step % 997 == 0 {
                assert_holds(&t, &model, &universe);
            }
        }
        assert_eq!(slots, 512, "256 records at most half fill 512 slots");
    }

    #[test]
    fn seq_table_deletes_from_full_clusters_that_wrap() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc1u64);
        // Clusters that start two slots before the array's end: all of
        // one home; then several homes interleaved, so that a deletion
        // meets records that must move back and records that must not.
        let one_home: &[(usize, usize)] = &[(62, 24)];
        let mixed: &[(usize, usize)] = &[(62, 6), (63, 5), (0, 1), (1, 6), (5, 4), (9, 3)];
        for homes in [one_home, mixed] {
            for round in 0..50 {
                let mut t = emptied_table(64);
                let mut keys: Vec<u64> = homes
                    .iter()
                    .flat_map(|&(home, count)| homed_at(&t, home, count))
                    .collect();
                // Insertion order decides who sits where in the cluster.
                shuffle(&mut keys, &mut rng);
                let mut model = HashMap::new();
                for (i, &seq) in keys.iter().enumerate() {
                    t.insert(seq, i as u64 + 1);
                    model.insert(seq, i as u64 + 1);
                }
                assert_eq!(t.slots.len(), 64, "the cluster fits the emptied array");
                assert!(
                    t.slots[63].word != SeqTable::EMPTY && t.slots[0].word != SeqTable::EMPTY,
                    "the cluster wraps"
                );
                assert_holds(&t, &model, &keys);
                // First in, last in, or any order.
                let mut doomed = keys.clone();
                match round % 3 {
                    0 => {}
                    1 => doomed.reverse(),
                    _ => shuffle(&mut doomed, &mut rng),
                }
                for seq in doomed {
                    t.remove_at(t.find(seq).unwrap());
                    model.remove(&seq);
                    assert_holds(&t, &model, &keys);
                }
                assert_eq!(t.slots.len(), 64);
            }
        }
    }

    #[test]
    fn seq_table_keeps_its_size_at_constant_occupancy() {
        // Seven records and a newcomer, as a lossless flow keeps them:
        // what `HashMap` needed headroom against its tombstones for.
        let mut t = SeqTable::default();
        for seq in 0..7u64 {
            t.insert(seq, seq + 1);
        }
        for seq in 7..1_000_007u64 {
            t.insert(seq, seq + 1);
            assert_eq!(t.slots.len(), 16, "at {seq}");
            t.remove_at(t.find(seq - 7).unwrap());
            assert_eq!(t.find(seq - 7), None);
        }
        assert_eq!(t.len, 7);
        for seq in 1_000_000..1_000_007u64 {
            assert_eq!(t.find(seq).map(|at| t.slots[at].word), Some(seq + 1));
        }
    }

    #[test]
    fn records_pack_into_a_word() {
        for record in [
            Record::Resolved(SimTime::ZERO),
            Record::Resolved(SimTime::from_secs(86_400 * 365)),
            Record::Partial(0),
            Record::Partial(u32::MAX),
        ] {
            assert_ne!(record.pack(), SeqTable::EMPTY);
            assert_eq!(Record::unpack(record.pack()), record);
        }
        // A clock past 2⁶³ ns reads as the last stamp there is, not as a
        // slab index.
        let last = Record::unpack(Record::Resolved(SimTime::MAX).pack());
        assert_eq!(last, Record::Resolved(SimTime::from_nanos((1 << 63) - 2)));
    }

    #[test]
    fn completes_at_threshold() {
        let mut t = table();
        let fs = frames(1, 3, 5, b"payload");
        assert_eq!(offer(&mut t, &fs[0], SimTime::ZERO).0, Stored);
        assert_eq!(offer(&mut t, &fs[2], SimTime::ZERO).0, Stored);
        assert_eq!(
            offer(&mut t, &fs[4], SimTime::ZERO),
            (Completed, b"payload".to_vec()),
            "3rd share must complete"
        );
        assert_eq!(t.stats().completed, 1);
        assert_eq!(t.pending_symbols(), 0);
        assert_eq!(t.buffered_bytes(), 0);
    }

    #[test]
    fn threshold_one_completes_immediately() {
        let mut t = table();
        let fs = frames(9, 1, 3, b"now");
        assert_eq!(
            offer(&mut t, &fs[1], SimTime::ZERO),
            (Completed, b"now".to_vec()),
            "k=1 completes on first share"
        );
    }

    #[test]
    fn late_shares_are_stale() {
        let mut t = table();
        let fs = frames(2, 2, 3, b"xy");
        offer(&mut t, &fs[0], SimTime::ZERO);
        offer(&mut t, &fs[1], SimTime::ZERO);
        assert_eq!(offer(&mut t, &fs[2], SimTime::ZERO).0, Stale);
        assert_eq!(t.stats().stale, 1);
    }

    #[test]
    fn duplicates_detected() {
        let mut t = table();
        let fs = frames(3, 3, 3, b"dup");
        offer(&mut t, &fs[0], SimTime::ZERO);
        assert_eq!(offer(&mut t, &fs[0], SimTime::ZERO).0, Duplicate);
        assert_eq!(t.stats().duplicates, 1);
    }

    #[test]
    fn inconsistent_share_rejected() {
        let mut t = table();
        let fs = frames(4, 2, 3, b"abcd");
        offer(&mut t, &fs[0], SimTime::ZERO);
        // Same seq, different k.
        let alien = share_bytes(CodecId::Shamir, 4, (3, 3, 2), 0, &[0u8; 4]);
        assert_eq!(offer(&mut t, &alien, SimTime::ZERO).0, Inconsistent);
        // Same seq, different length.
        let alien = share_bytes(CodecId::Shamir, 4, (2, 3, 2), 0, &[0u8; 9]);
        assert_eq!(offer(&mut t, &alien, SimTime::ZERO).0, Inconsistent);
        assert_eq!(t.stats().inconsistent, 2);
    }

    /// Buffers the table's pool has handed out so far.
    fn pool_takes(t: &ReassemblyTable) -> u64 {
        t.pool_hits() + t.pool_misses()
    }

    /// Where the bytes of the share parked first for `seq` lie, and the
    /// capacity of the buffer holding them.
    fn parked_buffer(t: &ReassemblyTable, seq: u64) -> (*const u8, usize) {
        let p = t
            .partials
            .entries
            .iter()
            .find(|p| p.seq == seq && !p.shares.is_empty());
        let share = &p.expect("a share of it is parked").shares[0].1;
        (share.as_ptr(), share.capacity())
    }

    #[test]
    fn completing_share_is_checked_before_it_is_read_in_place() {
        for codec in CodecId::ALL {
            let mut t = table();
            let fs = frames_for(codec, 6, 3, 5, b"read where it lies");
            let len = ShareRef::decode(&fs[0]).unwrap().payload().len();
            assert_eq!(offer(&mut t, &fs[0], SimTime::ZERO).0, Stored);
            assert_eq!(offer(&mut t, &fs[1], SimTime::ZERO).0, Stored);
            let parked = (
                t.pending_symbols(),
                t.buffered_bytes(),
                t.partials.buffers(),
                pool_takes(&t),
            );
            assert_eq!(parked, (1, 2 * len, 2, 0), "{codec}");

            // Each of these would be the third share. None is read, none
            // takes a buffer, and the two parked shares stay as they were.
            let sibling = ShareRef::decode(&fs[2]).unwrap().payload().to_vec();
            let other = CodecId::ALL[1 - codec.wire_id() as usize];
            let rejected = [
                (fs[1].clone(), Duplicate),
                (
                    share_bytes(codec, 6, (3, 5, 3), 0, &vec![0; len + 1]),
                    Inconsistent,
                ),
                (share_bytes(codec, 6, (2, 5, 3), 0, &sibling), Inconsistent),
                (share_bytes(codec, 6, (3, 4, 3), 0, &sibling), Inconsistent),
                (share_bytes(other, 6, (3, 5, 3), 0, &sibling), Inconsistent),
            ];
            for (frame, verdict) in &rejected {
                assert_eq!(offer(&mut t, frame, SimTime::ZERO).0, *verdict, "{codec}");
                let now = (
                    t.pending_symbols(),
                    t.buffered_bytes(),
                    t.partials.buffers(),
                    pool_takes(&t),
                );
                assert_eq!(now, parked, "{codec}: a rejected share moved something");
            }
            assert_eq!((t.stats().duplicates, t.stats().inconsistent), (1, 4));

            // The real third share completes from where it lies: the
            // slab holds the two parked shares' buffers and no third, and
            // the one buffer taken is the one the symbol is rebuilt in.
            assert_eq!(
                offer(&mut t, &fs[4], SimTime::ZERO),
                (Completed, b"read where it lies".to_vec()),
                "{codec}"
            );
            assert_eq!(
                (t.partials.buffers(), pool_takes(&t)),
                (2, 1),
                "{codec}: the completing share was parked"
            );
            assert_eq!((t.pending_symbols(), t.buffered_bytes()), (0, 0));
            assert_eq!(t.stats().completed, 1);
        }
    }

    #[test]
    fn xor_codec_symbols_reassemble() {
        let mut t = table();
        let fs = xor_frames(7, 3, 5, b"xor codec payload");
        assert_eq!(offer(&mut t, &fs[4], SimTime::ZERO).0, Stored);
        assert_eq!(offer(&mut t, &fs[1], SimTime::ZERO).0, Stored);
        assert_eq!(
            offer(&mut t, &fs[3], SimTime::ZERO),
            (Completed, b"xor codec payload".to_vec()),
            "3rd distinct XOR share must complete"
        );
        assert_eq!(t.stats().completed, 1);
        assert_eq!(t.stats().decode_failures, 0);
        assert_eq!(t.buffered_bytes(), 0);
    }

    #[test]
    fn xor_threshold_one_strips_wrapper() {
        let mut t = table();
        let fs = xor_frames(8, 1, 3, b"wrapped");
        assert_eq!(
            offer(&mut t, &fs[2], SimTime::ZERO),
            (Completed, b"wrapped".to_vec()),
            "k=1 completes on first share"
        );
        // A garbled wrapper (short payload) must not resolve the symbol.
        let bad = share_bytes(CodecId::Xor2d, 9, (1, 3, 1), 0, &[0xEE]);
        assert_eq!(offer(&mut t, &bad, SimTime::ZERO).0, Inconsistent);
        assert_eq!(t.stats().decode_failures, 1);
        // …so a well-formed share for the same seq still completes.
        let good = xor_frames(9, 1, 3, b"retry");
        assert_eq!(
            offer(&mut t, &good[0], SimTime::ZERO),
            (Completed, b"retry".to_vec())
        );
    }

    #[test]
    fn codec_mismatch_is_inconsistent() {
        let mut t = table();
        let shamir = frames(11, 2, 3, b"abcdef");
        offer(&mut t, &shamir[0], SimTime::ZERO);
        // Same seq/k/m and share length but the other codec: rejected,
        // not mixed in.
        let same_len = share_bytes(CodecId::Xor2d, 11, (2, 3, 2), 0, &[0u8; 6]);
        assert_eq!(offer(&mut t, &same_len, SimTime::ZERO).0, Inconsistent);
        // Differing multiplicity is likewise rejected (XOR layout
        // depends on m, which the Shamir path never examined).
        let sibling = ShareRef::decode(&shamir[1]).unwrap();
        let wrong_m = share_bytes(CodecId::Shamir, 11, (2, 5, 2), 0, sibling.payload());
        assert_eq!(offer(&mut t, &wrong_m, SimTime::ZERO).0, Inconsistent);
        assert_eq!(t.stats().inconsistent, 2);
    }

    #[test]
    fn xor_decode_failure_resolves_symbol() {
        let mut t = table();
        let fs = xor_frames(12, 2, 3, b"sixteen byte sec");
        // Garble the first-arriving share's length prefix: its length
        // is unchanged (so the sibling check passes), but the decode —
        // which reads the prefix off the first buffered share — sees a
        // layout whose share length no longer matches.
        let mut garbled = fs[0].clone();
        garbled[header_bytes(CodecId::Xor2d)] ^= 0xFF;
        assert_eq!(offer(&mut t, &garbled, SimTime::ZERO).0, Stored);
        // The completing share cannot be decoded with it: counted, the
        // symbol resolved, and the share itself never parked.
        assert_eq!(offer(&mut t, &fs[1], SimTime::ZERO).0, Inconsistent);
        assert_eq!(
            (t.partials.buffers(), pool_takes(&t)),
            (1, 1),
            "one parked share, one rebuild buffer"
        );
        assert_eq!(t.stats().decode_failures, 1);
        assert_eq!(t.stats().completed, 0);
        assert_eq!(t.pending_symbols(), 0, "failed symbol is resolved");
        assert_eq!(t.buffered_bytes(), 0);
        // Late shares of the failed symbol read as stale.
        assert_eq!(offer(&mut t, &fs[2], SimTime::ZERO).0, Stale);
    }

    #[test]
    fn the_next_park_reuses_a_retired_partials_buffer() {
        let mut t = ReassemblyTable::new(SimTime::from_millis(10), 1 << 20);
        let first = frames(50, 2, 3, &[5u8; 300]);
        offer(&mut t, &first[0], SimTime::ZERO);
        let buffer = parked_buffer(&t, 50);
        // Completed: its buffer waits, emptied, for the next share…
        assert_eq!(offer(&mut t, &first[1], SimTime::ZERO).0, Completed);
        assert_eq!(t.partials.buffers(), 1);
        let second = frames(51, 2, 3, &[6u8; 300]);
        offer(&mut t, &second[0], SimTime::ZERO);
        assert_eq!(
            parked_buffer(&t, 51),
            buffer,
            "a new buffer after completion"
        );
        assert_eq!(t.partials.buffers(), 1);
        // …and evicted likewise.
        t.sweep(SimTime::from_millis(11));
        assert_eq!(t.stats().timeout_evictions, 1);
        let third = frames(52, 2, 3, &[7u8; 300]);
        offer(&mut t, &third[0], SimTime::from_millis(11));
        assert_eq!(parked_buffer(&t, 52), buffer, "a new buffer after eviction");
        assert_eq!(t.partials.buffers(), 1);
        assert_eq!(
            offer(&mut t, &third[1], SimTime::from_millis(11)),
            (Completed, vec![7u8; 300])
        );
    }

    #[test]
    fn timeout_evicts_partials() {
        let mut t = ReassemblyTable::new(SimTime::from_millis(10), 1 << 20);
        let fs = frames(5, 2, 3, b"slow");
        offer(&mut t, &fs[0], SimTime::ZERO);
        t.sweep(SimTime::from_millis(5));
        assert_eq!(t.pending_symbols(), 1, "not yet timed out");
        t.sweep(SimTime::from_millis(11));
        assert_eq!(t.pending_symbols(), 0);
        assert_eq!(t.stats().timeout_evictions, 1);
        // A share arriving after eviction is stale.
        assert_eq!(offer(&mut t, &fs[1], SimTime::from_millis(12)).0, Stale);
    }

    #[test]
    fn next_sweep_at_names_the_grid_instant_that_evicts() {
        let mut t = table();
        assert_eq!(t.sweep_period(), SimTime::from_millis(25));
        assert_eq!(t.next_sweep_at(), None, "nothing buffered");
        let (a, b) = (frames(1, 2, 3, b"a"), frames(2, 2, 3, b"b"));
        offer(&mut t, &a[0], SimTime::from_millis(37));
        offer(&mut t, &b[0], SimTime::from_millis(50));
        // Symbol 1 is past its timeout from 137 ms on; symbol 2 is not
        // yet at 150 ms (older than the timeout, not as old).
        assert_eq!(t.next_sweep_at(), Some(SimTime::from_millis(150)));
        t.sweep(SimTime::from_millis(125));
        assert_eq!(t.stats().timeout_evictions, 0, "nothing due before it");
        t.sweep(SimTime::from_millis(150));
        assert_eq!((t.stats().timeout_evictions, t.pending_symbols()), (1, 1));
        assert_eq!(t.next_sweep_at(), Some(SimTime::from_millis(175)));
        assert_eq!(offer(&mut t, &b[1], SimTime::from_millis(160)).0, Completed);
        assert_eq!(t.next_sweep_at(), None);
    }

    /// The sequence numbers on `t`'s list, oldest first, after checking
    /// that its links agree both ways.
    fn listed(t: &ReassemblyTable) -> Vec<u64> {
        let (mut seqs, mut prev, mut at) = (Vec::new(), NO_PARTIAL, t.core.list.oldest);
        while at != NO_PARTIAL {
            let p = t.partials.get(at);
            assert_eq!(p.prev, prev, "links of {}", p.seq);
            seqs.push(p.seq);
            (prev, at) = (at, p.next);
        }
        assert_eq!(t.core.list.newest, prev);
        assert_eq!(seqs.len(), t.pending_symbols());
        seqs
    }

    #[test]
    fn a_completed_partial_leaves_its_list_at_once() {
        let mut t = table();
        let parked = frames(0, 2, 3, b"parked");
        offer(&mut t, &parked[0], SimTime::ZERO);
        // A thousand symbols complete behind the starved one, each
        // leaving the list as it completes, and two entries serve them
        // all.
        for seq in 1..=1000 {
            let fs = frames(seq, 2, 3, b"flow");
            offer(&mut t, &fs[0], SimTime::from_millis(1));
            assert_eq!(listed(&t), [0, seq]);
            assert_eq!(offer(&mut t, &fs[1], SimTime::from_millis(1)).0, Completed);
            assert_eq!(listed(&t), [0]);
        }
        assert_eq!(t.partials.entries.len(), 2);
        // A completion from the middle of the list keeps the rest in
        // deadline order.
        let (mid, late) = (frames(2000, 2, 3, b"mid"), frames(2001, 2, 3, b"late"));
        offer(&mut t, &mid[0], SimTime::from_millis(20));
        offer(&mut t, &late[0], SimTime::from_millis(30));
        assert_eq!(listed(&t), [0, 2000, 2001]);
        assert_eq!(
            offer(&mut t, &mid[1], SimTime::from_millis(40)).0,
            Completed
        );
        assert_eq!(listed(&t), [0, 2001]);
        // The sweeps evict what is left, oldest first.
        assert_eq!(t.next_sweep_at(), Some(SimTime::from_millis(125)));
        t.sweep(SimTime::from_millis(125));
        assert_eq!((t.stats().timeout_evictions, listed(&t)), (1, vec![2001]));
        assert_eq!(
            offer(&mut t, &parked[1], SimTime::from_millis(126)).0,
            Stale
        );
        assert_eq!(t.next_sweep_at(), Some(SimTime::from_millis(150)));
        t.sweep(SimTime::from_millis(150));
        assert_eq!((t.stats().timeout_evictions, listed(&t)), (2, vec![]));
        assert_eq!(t.next_sweep_at(), None);
    }

    #[test]
    fn memory_cap_evicts_oldest() {
        // Cap of 100 bytes; 40-byte shares.
        let mut t = ReassemblyTable::new(SimTime::from_secs(1), 100);
        let a = frames(10, 2, 2, &[1u8; 40]);
        let b = frames(11, 2, 2, &[2u8; 40]);
        let c = frames(12, 2, 2, &[3u8; 40]);
        offer(&mut t, &a[0], SimTime::ZERO);
        offer(&mut t, &b[0], SimTime::from_nanos(1));
        assert_eq!(t.buffered_bytes(), 80);
        // Third symbol exceeds the cap: symbol 10 (oldest) is evicted.
        offer(&mut t, &c[0], SimTime::from_nanos(2));
        assert_eq!(t.stats().memory_evictions, 1);
        assert_eq!(t.buffered_bytes(), 80);
        assert_eq!(offer(&mut t, &a[1], SimTime::from_nanos(3)).0, Stale);
        // Symbols 11 and 12 still complete.
        assert_eq!(offer(&mut t, &b[1], SimTime::from_nanos(4)).0, Completed);
        assert_eq!(offer(&mut t, &c[1], SimTime::from_nanos(5)).0, Completed);
    }

    #[test]
    fn memory_cap_holds_for_every_parked_share() {
        // Cap of 100 bytes; 40-byte shares of 3-of-3 symbols.
        let mut t = ReassemblyTable::new(SimTime::from_secs(1), 100);
        let a = frames(10, 3, 3, &[1u8; 40]);
        let b = frames(11, 3, 3, &[2u8; 40]);
        offer(&mut t, &a[0], SimTime::ZERO);
        offer(&mut t, &b[0], SimTime::from_nanos(1));
        // A's second share evicts B, the oldest partial but A itself.
        assert_eq!(offer(&mut t, &a[1], SimTime::from_nanos(2)).0, Stored);
        assert_eq!(t.stats().memory_evictions, 1);
        assert_eq!(t.buffered_bytes(), 80);
        assert_eq!(offer(&mut t, &b[1], SimTime::from_nanos(3)).0, Stale);
        assert_eq!(
            offer(&mut t, &a[2], SimTime::from_nanos(4)),
            (Completed, vec![1u8; 40])
        );

        // Under a cap of 60 bytes no symbol parks two shares: the
        // second evicts its own symbol.
        let mut t = ReassemblyTable::new(SimTime::from_secs(1), 60);
        assert_eq!(offer(&mut t, &a[0], SimTime::ZERO).0, Stored);
        assert_eq!(offer(&mut t, &a[1], SimTime::ZERO).0, Stale);
        assert_eq!(t.stats().memory_evictions, 1);
        assert_eq!((t.pending_symbols(), t.buffered_bytes()), (0, 0));
        assert_eq!(offer(&mut t, &a[2], SimTime::ZERO).0, Stale);
        assert_eq!(t.stats().stale, 1);
    }

    #[test]
    fn a_first_share_larger_than_the_cap_is_evicted() {
        // Cap of 30 bytes; one 40-byte share of a 2-of-2 symbol.
        let mut t = ReassemblyTable::new(SimTime::from_secs(1), 30);
        let a = frames(10, 2, 2, &[1u8; 40]);
        assert_eq!(offer(&mut t, &a[0], SimTime::ZERO).0, Stale);
        assert_eq!(t.stats().memory_evictions, 1);
        assert_eq!((t.pending_symbols(), t.buffered_bytes()), (0, 0));
        assert_eq!(offer(&mut t, &a[1], SimTime::from_nanos(1)).0, Stale);
        assert_eq!(t.stats().stale, 1);
    }

    #[test]
    fn residency_tracks_buffering_time() {
        let mut t = table();
        let fs = frames(40, 2, 3, b"wait");
        offer(&mut t, &fs[0], SimTime::from_millis(3));
        assert_eq!(offer(&mut t, &fs[1], SimTime::from_millis(8)).0, Completed);
        assert_eq!(t.last_completed_residency(), SimTime::from_millis(5));
        // k = 1 never buffers: residency reads zero.
        let one = frames(41, 1, 1, b"now");
        offer(&mut t, &one[0], SimTime::from_millis(20));
        assert_eq!(t.last_completed_residency(), SimTime::ZERO);
    }

    #[test]
    fn resolved_records_pruned() {
        let mut t = ReassemblyTable::new(SimTime::from_millis(10), 1 << 20);
        let fs = frames(20, 1, 1, b"x");
        offer(&mut t, &fs[0], SimTime::ZERO);
        // After 2× timeout the resolution record is pruned, so a late
        // duplicate is treated as a fresh symbol (and completes again,
        // as in IP reassembly where the id space is reused).
        t.sweep(SimTime::from_millis(25));
        assert_eq!(offer(&mut t, &fs[0], SimTime::from_millis(26)).0, Completed);
    }

    #[test]
    fn records_are_forgotten_on_the_grid_without_a_sweep() {
        // Timeout 10 ms: grid every 2.5 ms, records kept 20 ms.
        let mut t = ReassemblyTable::new(SimTime::from_millis(10), 1 << 20);
        let fs = frames(21, 1, 1, b"x");
        offer(&mut t, &fs[0], SimTime::from_millis(1));
        // Older than 20 ms from 21 ms on, forgotten at the next grid
        // instant — where a periodic sweep would have dropped it.
        assert_eq!(offer(&mut t, &fs[0], SimTime::from_millis(22)).0, Stale);
        assert_eq!(
            offer(&mut t, &fs[0], SimTime::from_micros(22_500)).0,
            Completed
        );
        assert_eq!(t.resolved_records(), 1);
    }

    #[test]
    fn interleaved_symbols_reassemble() {
        let mut t = table();
        let a = frames(30, 2, 3, b"AAAA");
        let b = frames(31, 2, 3, b"BBBB");
        offer(&mut t, &a[0], SimTime::ZERO);
        offer(&mut t, &b[2], SimTime::ZERO);
        assert_eq!(t.pending_symbols(), 2);
        assert_eq!(
            offer(&mut t, &b[0], SimTime::ZERO),
            (Completed, b"BBBB".to_vec())
        );
        assert_eq!(
            offer(&mut t, &a[1], SimTime::ZERO),
            (Completed, b"AAAA".to_vec())
        );
    }

    #[test]
    fn pooled_buffers_recycle_across_symbols() {
        let mut t = table();
        let mut out = Vec::with_capacity(256);
        // Warm up one symbol's worth of pool and slab buffers…
        for f in &frames(0, 3, 3, &[0u8; 200]) {
            t.accept_into(&ShareRef::decode(f).unwrap(), SimTime::ZERO, &mut out);
        }
        let warm = (t.pool_misses(), t.partials.buffers());
        assert_eq!(warm, (1, 2));
        // …then every further same-shape symbol reuses them.
        for seq in 1..50u64 {
            for f in &frames(seq, 3, 3, &[seq as u8; 200]) {
                t.accept_into(&ShareRef::decode(f).unwrap(), SimTime::ZERO, &mut out);
            }
            assert_eq!(&out, &[seq as u8; 200], "symbol {seq}");
        }
        let now = (t.pool_misses(), t.partials.buffers());
        assert_eq!(now, warm, "steady state must not allocate");
    }

    #[test]
    fn resolved_cap_bounds_memory() {
        let mut t = ReassemblyTable::new(SimTime::from_secs(10), 1 << 20).with_resolved_cap(64);
        let lone = |seq| share_bytes(CodecId::Shamir, seq, (1, 1, 1), 0, &[7u8; 8]);
        for seq in 0..1000u64 {
            // k = 1 resolves immediately; never sweep, so only the cap
            // bounds the table.
            assert_eq!(offer(&mut t, &lone(seq), SimTime::ZERO).0, Completed);
            assert!(t.resolved_records() <= 64);
        }
        assert_eq!(t.stats().resolved_evictions, 1000 - 64);
        // Evicted ids read as fresh again (id space reuse), newest stay
        // stale.
        assert_eq!(offer(&mut t, &lone(0), SimTime::ZERO).0, Completed);
        assert_eq!(offer(&mut t, &lone(999), SimTime::ZERO).0, Stale);
    }
}
