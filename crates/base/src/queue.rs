//! Pending-event storage: a classic binary heap and a hierarchical
//! timer wheel, behind one [`EventQueue`] facade.
//!
//! Both backends implement the *same* total order — earliest `at` first,
//! ties broken by insertion sequence — so a consumer replays an
//! identical event stream whichever backend it runs on. The regression
//! tests in this module (and the protocol-level pins in `mcss-remicss`)
//! hold the wheel to that contract bit-for-bit.
//!
//! The queue serves two masters with the same needs: the discrete-event
//! simulator (`mcss-netsim`) schedules frame deliveries and
//! application timers on it, and each `mcss-server` shard runs one
//! wheel as its session timer multiplexer: a source tick per paced
//! session and a sweep timer per session with something to expire —
//! many short-horizon timers, the workload wheels were invented for,
//! but as many as there is work, not as many as there are sessions.
//!
//! # Why a wheel
//!
//! A binary heap pays `O(log n)` comparisons per push *and* per pop, and
//! its sift paths touch cache lines scattered across the arena. The
//! timer wheel buckets events by coarse time tick instead: a push is an
//! index computation plus a `Vec::push`, and a pop drains the next
//! occupied bucket found by a bitmask scan. For the workloads here —
//! millions of short-horizon deliveries and timers — the amortized
//! cost per event is `O(1)`.
//!
//! # Structure and invariants
//!
//! Ticks are `at >> TICK_SHIFT` (2¹² ns ≈ 4 µs per tick). The wheel
//! keeps a cursor tick `cur` and partitions pending events:
//!
//! * **staging** — a small binary min-heap ordered by `(at, seq)`
//!   holding every event whose tick is `<= cur`;
//! * **levels** — `LEVELS` rings of `SLOTS` buckets; an event whose tick
//!   differs from `cur` first in bit range `[6·l, 6·(l+1))` lives in
//!   level `l`, bucket `(tick >> 6·l) & 63`. A per-level occupancy
//!   bitmask makes "next occupied bucket" one `trailing_zeros`;
//! * **overflow** — events beyond the wheel span (≳ 3 days of simulated
//!   time), stored unordered and rebased lazily.
//!
//! A drained bucket's storage goes to its level's spare list and the
//! next bucket of that level that needs storage takes it from there, so
//! the wheel allocates when more buckets of a level are occupied at
//! once than ever before — a warm wheel allocates nothing as time moves
//! on, whichever bucket indices its cursor reaches.
//!
//! The separation invariant — staging holds ticks `<= cur`, everything
//! else holds ticks `> cur` — means the staging minimum is the *global*
//! minimum, so `pop` is exact, not approximate. The simulator never
//! schedules into the past, so a push lands in staging only when its
//! tick has already been reached, which preserves the heap's tie-break
//! semantics exactly: among equal `(at)`, lower `seq` (earlier
//! insertion) pops first.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::SimTime;

/// Log2 of nanoseconds per wheel tick (4096 ns ≈ 4 µs).
const TICK_SHIFT: u32 = 12;
/// Log2 of buckets per level.
const SLOT_BITS: u32 = 6;
/// Buckets per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels; spans `2^(TICK_SHIFT + SLOT_BITS·LEVELS)` ns before
/// the overflow list takes over.
const LEVELS: usize = 6;

/// Which pending-event backend an [`EventQueue`] (and therefore a
/// simulator or a server shard's timer multiplexer) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `BinaryHeap` ordered by `(at, seq)`: the reference backend.
    Heap,
    /// Hierarchical timer wheel, bit-identical to the heap (the
    /// default).
    #[default]
    Wheel,
}

/// One pending event: payload plus its scheduling key.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Pending-event queue with earliest-`(at, seq)`-first semantics.
///
/// Both backends produce identical pop sequences for identical push
/// sequences; see the module docs for why.
#[derive(Debug)]
pub struct EventQueue<T> {
    inner: Inner<T>,
}

#[derive(Debug)]
enum Inner<T> {
    Heap(BinaryHeap<Entry<T>>),
    Wheel(TimerWheel<T>),
}

impl<T> EventQueue<T> {
    /// Creates an empty queue on the chosen backend.
    #[must_use]
    pub fn new(kind: QueueKind) -> Self {
        let inner = match kind {
            QueueKind::Heap => Inner::Heap(BinaryHeap::new()),
            QueueKind::Wheel => Inner::Wheel(TimerWheel::new()),
        };
        EventQueue { inner }
    }

    /// The backend in use.
    #[must_use]
    pub fn kind(&self) -> QueueKind {
        match self.inner {
            Inner::Heap(_) => QueueKind::Heap,
            Inner::Wheel(_) => QueueKind::Wheel,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(h) => h.len(),
            Inner::Wheel(w) => w.len,
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `item` at `(at, seq)`. `seq` must be unique and
    /// monotonically assigned (the simulator's insertion counter).
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let entry = Entry { at, seq, item };
        match &mut self.inner {
            Inner::Heap(h) => h.push(entry),
            Inner::Wheel(w) => w.push(entry),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let _span = mcss_obs::span!("base.queue.pop");
        let entry = match &mut self.inner {
            Inner::Heap(h) => h.pop(),
            Inner::Wheel(w) => w.pop(),
        };
        entry.map(|e| (e.at, e.seq, e.item))
    }

    /// Timestamp of the earliest event without removing it.
    ///
    /// Takes `&mut self`: the wheel may advance its cursor (moving
    /// events between internal tiers) to learn its minimum, which
    /// changes no observable ordering.
    pub fn next_at(&mut self) -> Option<SimTime> {
        match &mut self.inner {
            Inner::Heap(h) => h.peek().map(|e| e.at),
            Inner::Wheel(w) => w.next_at(),
        }
    }

    /// How long an event loop may sleep from `now` before the earliest
    /// event is due, in whole milliseconds rounded *up* — so a sleeper
    /// using this value never wakes before the deadline. `Some(0)`
    /// means an event is already due; `None` means the queue is empty
    /// (sleep indefinitely, or until some other wakeup source fires).
    pub fn millis_until_next(&mut self, now: SimTime) -> Option<u64> {
        self.next_at()
            .map(|at| at.saturating_sub(now).as_nanos().div_ceil(1_000_000))
    }
}

/// The hierarchical wheel itself. See the module docs for the layout.
#[derive(Debug)]
struct TimerWheel<T> {
    /// Cursor tick: staging holds ticks `<= cur`, wheel/overflow `> cur`.
    cur: u64,
    /// Min-heap by `(at, seq)` of all due-tick events.
    staging: BinaryHeap<Entry<T>>,
    /// `LEVELS × SLOTS` buckets.
    levels: Box<[[Vec<Entry<T>>; SLOTS]; LEVELS]>,
    /// Storage of drained buckets, per level (buckets of one level hold
    /// alike numbers of events). A bucket that needs storage takes one
    /// of these before it allocates, so the wheel allocates when more
    /// buckets of a level are occupied at once than ever before — not
    /// whenever the cursor reaches a bucket index for the first time.
    spare: Box<[Vec<Vec<Entry<T>>>; LEVELS]>,
    /// Per-level occupancy bitmask (bit `s` set ⇔ bucket `s` non-empty).
    occ: [u64; LEVELS],
    /// Events beyond the wheel span, unordered.
    overflow: Vec<Entry<T>>,
    len: usize,
}

fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

impl<T> TimerWheel<T> {
    fn new() -> Self {
        TimerWheel {
            cur: 0,
            staging: BinaryHeap::new(),
            levels: Box::new(std::array::from_fn(|_| std::array::from_fn(|_| Vec::new()))),
            spare: Box::new(std::array::from_fn(|_| Vec::new())),
            occ: [0; LEVELS],
            overflow: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, entry: Entry<T>) {
        self.len += 1;
        let tick = tick_of(entry.at);
        if tick <= self.cur {
            self.staging.push(entry);
        } else {
            self.place(entry, tick);
        }
    }

    /// Files a future entry (`tick > self.cur`) into its level bucket.
    fn place(&mut self, entry: Entry<T>, tick: u64) {
        debug_assert!(tick > self.cur);
        let diff = tick ^ self.cur;
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        if level >= LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((tick >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
        let bucket = &mut self.levels[level][slot];
        if bucket.capacity() == 0 {
            if let Some(spare) = self.spare[level].pop() {
                *bucket = spare;
            }
        }
        bucket.push(entry);
        self.occ[level] |= 1 << slot;
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        if self.staging.is_empty() && !self.advance() {
            return None;
        }
        self.len -= 1;
        self.staging.pop()
    }

    fn next_at(&mut self) -> Option<SimTime> {
        if self.staging.is_empty() && !self.advance() {
            return None;
        }
        self.staging.peek().map(|e| e.at)
    }

    /// Advances the cursor to the next occupied tick and moves that
    /// bucket into staging. Returns `false` iff nothing is pending
    /// outside staging.
    fn advance(&mut self) -> bool {
        debug_assert!(self.staging.is_empty());
        loop {
            let mut cascaded = false;
            for level in 0..LEVELS {
                let slot_cur = ((self.cur >> (level as u32 * SLOT_BITS)) & SLOT_MASK) as usize;
                // Occupied buckets strictly after the cursor's bucket at
                // this level; buckets at or before it were drained when
                // the cursor entered this frame.
                let ahead = if slot_cur == SLOTS - 1 {
                    0
                } else {
                    self.occ[level] & (!0u64 << (slot_cur + 1))
                };
                if ahead == 0 {
                    continue;
                }
                let slot = ahead.trailing_zeros() as usize;
                self.occ[level] &= !(1u64 << slot);
                let mut bucket = mem::take(&mut self.levels[level][slot]);
                // Advance the cursor to the base tick of the bucket:
                // keep bits above the level, set the level's bits to
                // `slot`, zero everything below. Every entry in the
                // bucket has a tick at or past this base, and everything
                // still in the wheel is strictly past it.
                let below = (1u64 << ((level as u32 + 1) * SLOT_BITS)) - 1;
                self.cur = (self.cur & !below) | ((slot as u64) << (level as u32 * SLOT_BITS));
                for entry in bucket.drain(..) {
                    let tick = tick_of(entry.at);
                    if tick <= self.cur {
                        self.staging.push(entry);
                    } else {
                        // Re-files strictly below `level`: the entry
                        // agrees with the new cursor on this level's
                        // bits and above.
                        self.place(entry, tick);
                    }
                }
                self.spare[level].push(bucket);
                cascaded = true;
                break;
            }
            if !self.staging.is_empty() {
                return true;
            }
            if cascaded {
                // A higher-level bucket cascaded into lower levels only;
                // rescan from level 0 to find the next occupied bucket.
                continue;
            }
            // Wheel empty: rebase onto the earliest overflow tick, if any.
            if self.overflow.is_empty() {
                return false;
            }
            let min_tick = self
                .overflow
                .iter()
                .map(|e| tick_of(e.at))
                .min()
                .expect("non-empty");
            debug_assert!(min_tick > self.cur);
            self.cur = min_tick;
            let overflow = mem::take(&mut self.overflow);
            for entry in overflow {
                let tick = tick_of(entry.at);
                if tick <= self.cur {
                    self.staging.push(entry);
                } else {
                    self.place(entry, tick);
                }
            }
            debug_assert!(!self.staging.is_empty());
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    #[test]
    fn millis_until_next_rounds_up_and_saturates() {
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            let mut q = EventQueue::new(kind);
            assert_eq!(q.millis_until_next(SimTime::ZERO), None, "{kind:?} empty");
            q.push(SimTime::from_micros(2_500), 0, ());
            // 2.5 ms away rounds up: sleeping the result never wakes early.
            assert_eq!(q.millis_until_next(SimTime::ZERO), Some(3), "{kind:?}");
            assert_eq!(
                q.millis_until_next(SimTime::from_micros(2_500)),
                Some(0),
                "{kind:?} due now"
            );
            // Past-due saturates to 0 rather than underflowing.
            assert_eq!(
                q.millis_until_next(SimTime::from_secs(1)),
                Some(0),
                "{kind:?} past due"
            );
        }
    }

    /// Exhaustively interleaves pushes and pops on both backends and
    /// demands identical pop streams — the wheel's core contract.
    fn lockstep(schedule: impl IntoIterator<Item = Option<u64>>) {
        let mut heap = EventQueue::new(QueueKind::Heap);
        let mut wheel = EventQueue::new(QueueKind::Wheel);
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        for op in schedule {
            match op {
                Some(nanos) => {
                    // Never schedule into the past, like the simulator.
                    let at = now.max(SimTime::from_nanos(nanos));
                    heap.push(at, seq, seq);
                    wheel.push(at, seq, seq);
                    seq += 1;
                }
                None => {
                    assert_eq!(heap.next_at(), wheel.next_at());
                    let (h, w) = (heap.pop(), wheel.pop());
                    assert_eq!(h, w);
                    if let Some((at, _, _)) = h {
                        assert!(at >= now, "time must be monotone");
                        now = at;
                    }
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        // Drain what remains.
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_queue() {
        let mut q: EventQueue<u32> = EventQueue::new(QueueKind::Wheel);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.next_at(), None);
        assert_eq!(
            EventQueue::<u32>::new(QueueKind::Heap).kind(),
            QueueKind::Heap
        );
        assert_eq!(q.kind(), QueueKind::Wheel);
    }

    #[test]
    fn same_tick_orders_by_seq() {
        let mut q = EventQueue::new(QueueKind::Wheel);
        let at = SimTime::from_nanos(10_000);
        q.push(at, 1, 'b');
        q.push(at, 0, 'a');
        q.push(SimTime::from_nanos(10_001), 2, 'c'); // same tick, later at
        assert_eq!(q.pop(), Some((at, 0, 'a')));
        assert_eq!(q.pop(), Some((at, 1, 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10_001), 2, 'c')));
    }

    #[test]
    fn lockstep_dense_short_horizon() {
        // Deliveries a few µs..ms out, interleaved pops: the hot shape.
        let mut rng = StdRng::seed_from_u64(7);
        let mut ops = Vec::new();
        let mut t = 0u64;
        for _ in 0..5_000 {
            if rng.random_bool(0.6) {
                t += rng.random_range(0..50_000);
                ops.push(Some(t + rng.random_range(0..2_000_000)));
            } else {
                ops.push(None);
            }
        }
        lockstep(ops);
    }

    #[test]
    fn lockstep_cross_level_horizons() {
        // Mix of horizons spanning every wheel level and the overflow
        // list (up to ~10⁷ s), plus exact ties.
        let mut rng = StdRng::seed_from_u64(99);
        let mut ops = Vec::new();
        for i in 0..3_000u64 {
            if rng.random_bool(0.55) {
                let exp = rng.random_range(8..56);
                let nanos = rng.random_range(0..(1u64 << exp));
                ops.push(Some(nanos));
                if i % 7 == 0 {
                    ops.push(Some(nanos)); // exact tie, broken by seq
                }
            } else {
                ops.push(None);
            }
        }
        lockstep(ops);
    }

    #[test]
    fn lockstep_bursty_then_idle() {
        // Bursts at one tick followed by long idle gaps force cursor
        // jumps across empty frames and overflow rebasing.
        let mut ops = Vec::new();
        let mut t = 0u64;
        for burst in 0..50u64 {
            for j in 0..40 {
                ops.push(Some(t + j % 3));
            }
            for _ in 0..40 {
                ops.push(None);
            }
            t += 1u64 << (20 + (burst % 30)); // gaps up to ~10 minutes
        }
        lockstep(ops);
    }

    #[test]
    fn far_future_overflow_entries() {
        let mut q = EventQueue::new(QueueKind::Wheel);
        // ~4 months out: beyond the wheel span, lands in overflow.
        let far = SimTime::from_secs_f64(1e7);
        q.push(far, 0, 'z');
        q.push(SimTime::from_nanos(5), 1, 'a');
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1, 'a')));
        assert_eq!(q.next_at(), Some(far));
        assert_eq!(q.pop(), Some((far, 0, 'z')));
        assert!(q.is_empty());
    }
}
