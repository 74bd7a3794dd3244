//! Property tests for the reassembly table: arbitrary interleavings,
//! duplications, and losses of shares must preserve its invariants, and
//! the table, swept only when it says a sweep is due, must behave
//! exactly as the [`periodic`] table swept on every grid instant.

#![cfg(feature = "sim")]

mod common;

use common::{share_bytes, symbol_frames};
use mcss_codec::CodecId;
use mcss_netsim::SimTime;
use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyTable};
use mcss_remicss::wire::ShareRef;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// The reassembly table as it was when timeouts cost a scan: a sweep
/// reads every partial symbol and every resolution record, and the
/// memory cap looks through all partials for the oldest. Kept as the
/// reference the demand-swept table is compared against. It stores no
/// share data (the caller knows what a completed symbol must decode
/// to), it evicts the partials one sweep finds expired in arrival
/// order, where the old table followed its hash map's, and it makes
/// room under the memory cap before parking any share, where the old
/// table did so for a symbol's first share only.
mod periodic {
    use std::collections::{HashMap, VecDeque};

    use mcss_codec::CodecId;
    use mcss_netsim::SimTime;
    use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyStats};
    use mcss_remicss::wire::ShareRef;

    struct Partial {
        codec: CodecId,
        k: u8,
        m: u8,
        share_len: usize,
        xs: Vec<u8>,
        first_seen: SimTime,
        /// Arrival rank of the first share.
        ticket: u64,
    }

    impl Partial {
        fn bytes(&self) -> usize {
            self.xs.len() * self.share_len
        }
    }

    pub struct Table {
        timeout: SimTime,
        capacity_bytes: usize,
        resolved_cap: usize,
        buffered_bytes: usize,
        tickets: u64,
        pending: HashMap<u64, Partial>,
        resolved: HashMap<u64, SimTime>,
        resolved_order: VecDeque<u64>,
        pub stats: ReassemblyStats,
    }

    impl Table {
        pub fn new(timeout: SimTime, capacity_bytes: usize, resolved_cap: usize) -> Self {
            Table {
                timeout,
                capacity_bytes,
                resolved_cap,
                buffered_bytes: 0,
                tickets: 0,
                pending: HashMap::new(),
                resolved: HashMap::new(),
                resolved_order: VecDeque::new(),
                stats: ReassemblyStats::default(),
            }
        }

        pub fn pending_symbols(&self) -> usize {
            self.pending.len()
        }

        pub fn buffered_bytes(&self) -> usize {
            self.buffered_bytes
        }

        pub fn resolved_records(&self) -> usize {
            self.resolved.len()
        }

        pub fn accept(&mut self, frame: &ShareRef<'_>, now: SimTime) -> AcceptOutcome {
            let seq = frame.seq();
            let share_len = frame.payload().len();
            if self.resolved.contains_key(&seq) {
                self.stats.stale += 1;
                return AcceptOutcome::Stale;
            }
            let Some(p) = self.pending.get_mut(&seq) else {
                if frame.k() == 1 {
                    self.resolve(seq, now);
                    self.stats.completed += 1;
                    return AcceptOutcome::Completed;
                }
                // A first share larger than the cap alone is evicted.
                if !self.make_room(share_len, None) {
                    self.resolve(seq, now);
                    self.stats.memory_evictions += 1;
                    return AcceptOutcome::Stale;
                }
                self.tickets += 1;
                self.pending.insert(
                    seq,
                    Partial {
                        codec: frame.codec(),
                        k: frame.k(),
                        m: frame.m(),
                        share_len,
                        xs: vec![frame.x()],
                        first_seen: now,
                        ticket: self.tickets,
                    },
                );
                self.buffered_bytes += share_len;
                return AcceptOutcome::Stored;
            };
            if (p.codec, p.k, p.m, p.share_len) != (frame.codec(), frame.k(), frame.m(), share_len)
            {
                self.stats.inconsistent += 1;
                return AcceptOutcome::Inconsistent;
            }
            if p.xs.contains(&frame.x()) {
                self.stats.duplicates += 1;
                return AcceptOutcome::Duplicate;
            }
            if p.xs.len() + 1 < usize::from(p.k) {
                // Room is made among the other partials; a symbol that
                // cannot fit even alone is evicted itself.
                if !self.make_room(share_len, Some(seq)) {
                    let p = self.pending.remove(&seq).expect("just seen");
                    self.buffered_bytes -= p.bytes();
                    self.resolve(seq, p.first_seen);
                    self.stats.memory_evictions += 1;
                    return AcceptOutcome::Stale;
                }
                let p = self.pending.get_mut(&seq).expect("kept");
                p.xs.push(frame.x());
                self.buffered_bytes += share_len;
                return AcceptOutcome::Stored;
            }
            // The share that completes a symbol is read where it lies:
            // it is never buffered, and never counted.
            let p = self.pending.remove(&seq).expect("just seen");
            self.buffered_bytes -= p.bytes();
            self.resolve(seq, now);
            self.stats.completed += 1;
            AcceptOutcome::Completed
        }

        pub fn sweep(&mut self, now: SimTime) {
            let mut expired: Vec<(u64, u64)> = self
                .pending
                .iter()
                .filter(|(_, p)| now.saturating_sub(p.first_seen) > self.timeout)
                .map(|(&seq, p)| (p.ticket, seq))
                .collect();
            expired.sort_unstable();
            for (_, seq) in expired {
                let p = self.pending.remove(&seq).expect("listed above");
                self.buffered_bytes -= p.bytes();
                self.resolve(seq, now);
                self.stats.timeout_evictions += 1;
            }
            let horizon = self.timeout * 2;
            self.resolved
                .retain(|_, &mut t| now.saturating_sub(t) <= horizon);
            self.resolved_order
                .retain(|seq| self.resolved.contains_key(seq));
        }

        fn resolve(&mut self, seq: u64, at: SimTime) {
            assert!(self.resolved.insert(seq, at).is_none());
            self.resolved_order.push_back(seq);
            while self.resolved.len() > self.resolved_cap {
                let old = self
                    .resolved_order
                    .pop_front()
                    .expect("a record a ring entry");
                self.resolved.remove(&old);
                self.stats.resolved_evictions += 1;
            }
        }

        /// Evicts the oldest partials but `keep` until `incoming` more
        /// bytes fit under the cap; whether they now do.
        fn make_room(&mut self, incoming: usize, keep: Option<u64>) -> bool {
            while self.buffered_bytes + incoming > self.capacity_bytes {
                let Some((&seq, _)) = self
                    .pending
                    .iter()
                    .filter(|&(&seq, _)| Some(seq) != keep)
                    .min_by_key(|(_, p)| p.ticket)
                else {
                    return false;
                };
                let p = self.pending.remove(&seq).expect("just found");
                self.buffered_bytes -= p.bytes();
                self.resolve(seq, p.first_seen);
                self.stats.memory_evictions += 1;
            }
            true
        }
    }
}

/// The sequence number of the `index`-th symbol of a flow, for each way
/// a script spaces its numbers: a dense run from zero; multiples of
/// 2³² (equal modulo every table size); a run down from `u64::MAX`;
/// numbers 2¹² apart (equal modulo every table this small); all four
/// by turns. Distinct indices below 2²⁰ get distinct numbers.
fn spaced(spacing: u8, index: u64) -> u64 {
    match spacing {
        0 => index,
        1 => index << 32,
        2 => u64::MAX - index,
        3 => index << 12 | 0xfff,
        _ => spaced((index % 4) as u8, index / 4 + (1 << 20)),
    }
}

/// A scripted delivery: (symbol index, share index, repeat?).
type Script = (Vec<(u8, u8, u8)>, Vec<(u8, u8)>);

fn arbitrary_script() -> impl Strategy<Value = Script> {
    // Symbols use k = 2, m = 4, so any two distinct shares complete.
    let deliveries = proptest::collection::vec((0u8..6, 0u8..4, 1u8..3), 1..60);
    let params = proptest::collection::vec((2u8..=4, 0u8..=2), 6);
    (deliveries, params)
}

proptest! {
    /// Whatever order shares arrive in, each symbol completes exactly
    /// once, duplicates are flagged, and byte accounting never goes
    /// negative or leaks.
    #[test]
    fn interleaved_delivery_invariants(
        (script, _params) in arbitrary_script(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let k = 2u8;
        let m = 4u8;
        let symbols: Vec<Vec<Vec<u8>>> = (0..6u64)
            .map(|seq| symbol_frames(CodecId::Shamir, seq, (k, m), &[seq as u8; 32], &mut rng))
            .collect();
        let mut table = ReassemblyTable::new(SimTime::from_secs(1), 1 << 20);
        let mut completed = [false; 6];
        let mut payload = Vec::new();
        for (si, xi, repeats) in script {
            let frame = ShareRef::decode(&symbols[si as usize][xi as usize]).unwrap();
            for _ in 0..repeats {
                match table.accept_into(&frame, SimTime::ZERO, &mut payload) {
                    AcceptOutcome::Completed => {
                        prop_assert!(!completed[si as usize], "double completion");
                        completed[si as usize] = true;
                        prop_assert_eq!(&payload, &vec![si; 32]);
                    }
                    AcceptOutcome::Stored | AcceptOutcome::Duplicate | AcceptOutcome::Stale => {}
                    AcceptOutcome::Inconsistent => prop_assert!(false, "consistent input"),
                }
            }
        }
        // Accounting: buffered bytes are exactly 32 per stored share of
        // incomplete symbols.
        prop_assert_eq!(table.buffered_bytes() % 32, 0);
        let stats = table.stats();
        prop_assert_eq!(stats.completed as usize,
            completed.iter().filter(|&&c| c).count());
        prop_assert_eq!(stats.inconsistent, 0);
    }

    /// Sweeping at any point never breaks accounting, and after the
    /// timeout horizon the table is empty.
    #[test]
    fn sweeps_preserve_accounting(
        arrivals in proptest::collection::vec((0u8..8, 0u8..3, 0u64..200), 1..40),
        sweep_at in proptest::collection::vec(0u64..400, 0..8),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let k = 3u8;
        let m = 3u8;
        let symbols: Vec<Vec<Vec<u8>>> = (0..8u64)
            .map(|seq| symbol_frames(CodecId::Shamir, seq, (k, m), &[seq as u8; 16], &mut rng))
            .collect();
        let mut out = Vec::new();
        let timeout = SimTime::from_millis(50);
        let mut table = ReassemblyTable::new(timeout, 1 << 20);
        let mut events: Vec<(u64, Option<(u8, u8)>)> = arrivals
            .iter()
            .map(|&(si, xi, at)| (at, Some((si, xi))))
            .chain(sweep_at.iter().map(|&at| (at, None)))
            .collect();
        events.sort_by_key(|&(at, _)| at);
        for (at, ev) in events {
            let now = SimTime::from_millis(at);
            match ev {
                Some((si, xi)) => {
                    let share = ShareRef::decode(&symbols[si as usize][xi as usize]).unwrap();
                    let _ = table.accept_into(&share, now, &mut out);
                }
                None => table.sweep(now),
            }
            prop_assert!(table.buffered_bytes() <= 1 << 20);
        }
        // A final sweep far in the future clears all partials.
        table.sweep(SimTime::from_secs(100));
        prop_assert_eq!(table.pending_symbols(), 0);
        prop_assert_eq!(table.buffered_bytes(), 0);
    }

    /// The memory cap is a hard invariant under adversarial arrival
    /// patterns: buffered bytes never exceed capacity, whichever share
    /// of its symbol a share is, and however large.
    #[test]
    fn memory_cap_is_hard(
        k in 2u8..=3,
        arrivals in proptest::collection::vec((0u16..500, 0u8..3), 1..200),
        oversized_every in 2u16..10,
        oversized in 1001usize..2000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cap = 1000usize; // 31 shares of 32 bytes
        let mut table = ReassemblyTable::new(SimTime::from_secs(10), cap);
        let mut out = Vec::new();
        for (i, (seq, xi)) in arrivals.iter().enumerate() {
            // Every symbol whose seq is a multiple of `oversized_every`
            // has shares larger than the cap.
            let len = if seq % oversized_every == 0 { oversized } else { 32 };
            // m = k: every share but the last of a symbol is stored,
            // the last completes it.
            let frames = symbol_frames(CodecId::Shamir, u64::from(*seq), (k, k), &vec![0u8; len], &mut rng);
            let share = ShareRef::decode(&frames[usize::from(*xi % k)]).unwrap();
            let _ = table.accept_into(&share, SimTime::from_nanos(i as u64), &mut out);
            prop_assert!(
                table.buffered_bytes() <= cap,
                "cap breached: {} > {cap}",
                table.buffered_bytes()
            );
        }
    }

    /// Loss, duplicates, reordering, `k = 1`, both codecs, forged
    /// shares, shares later than twice the timeout, and both caps under
    /// pressure: whatever
    /// arrives, the table swept only at its own `next_sweep_at` gives
    /// the verdicts and counters of the periodic table swept on every
    /// grid instant — for sequence numbers in a dense run and for
    /// numbers far apart, which land on the table's slots as the hasher
    /// sends them and probe its clusters.
    #[test]
    fn demand_swept_table_matches_the_periodic_one(
        seed in any::<u64>(),
        spacing in 0u8..5,
        tight_memory in any::<bool>(),
        tight_records in any::<bool>(),
        brisk in any::<bool>(),
    ) {
        const SYMBOLS: u64 = 300;
        const STEPS: usize = 900;
        const PAYLOAD: usize = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let symbols: Vec<(Vec<u8>, Vec<Vec<u8>>)> = (0..SYMBOLS)
            .map(|index| {
                let seq = spaced(spacing, index);
                // A brisk flow completes most symbols on their second
                // share, behind the few it starves.
                let m = rng.random_range(1..=4u8);
                let k = rng.random_range(1..=if brisk { m.min(2) } else { m });
                let payload: Vec<u8> = (0..PAYLOAD).map(|_| rng.random()).collect();
                let codec = if rng.random_bool(0.5) {
                    CodecId::Shamir
                } else {
                    CodecId::Xor2d
                };
                let frames = symbol_frames(codec, seq, (k, m), &payload, &mut rng);
                (payload, frames)
            })
            .collect();

        let timeout = SimTime::from_millis(40);
        // Room for three or so first shares, or for every share.
        let capacity = if tight_memory { 3 * PAYLOAD } else { 1 << 20 };
        let resolved_cap = if tight_records { 6 } else { 1 << 20 };
        let mut table =
            ReassemblyTable::new(timeout, capacity).with_resolved_cap(resolved_cap);
        let mut reference = periodic::Table::new(timeout, capacity, resolved_cap);
        let period = table.sweep_period();
        prop_assert_eq!(period, SimTime::from_millis(10));

        let mut decoded = Vec::new();
        let mut now = SimTime::ZERO;
        let mut grid = SimTime::ZERO;
        // What an engine would have its one sweep timer set to.
        let mut armed: Option<SimTime> = None;
        for step in 0..STEPS {
            // Mostly a few milliseconds apart (a few hundred microseconds
            // in a brisk flow), now and then the same instant, now and
            // then well past every horizon.
            now += SimTime::from_micros(match rng.random_range(0..if brisk { 200 } else { 20u32 }) {
                0..=3 => 0,
                4 => rng.random_range(80_000..200_000),
                _ => rng.random_range(0..if brisk { 600 } else { 6_000 }),
            });
            while grid + period <= now {
                grid += period;
                reference.sweep(grid);
                if armed == Some(grid) {
                    table.sweep(grid);
                    armed = table.next_sweep_at();
                }
            }
            // Ids drift upwards, a new one every third step; one share
            // in sixteen belongs to a symbol long gone.
            let recent = step / 3 + rng.random_range(0..6);
            let id = if rng.random_range(0..16) == 0 {
                rng.random_range(0..=recent)
            } else {
                recent
            };
            let (payload, frames) = &symbols[id % SYMBOLS as usize];
            let frame = ShareRef::decode(&frames[rng.random_range(0..frames.len())]).unwrap();
            // One share in twenty-four claims another threshold (and
            // Shamir, whose decode is total): it is inconsistent with
            // the symbol's real shares, and they with it.
            let alien = rng.random_range(0..24) == 0;
            let forged;
            let frame = if alien {
                let kmx = (frame.k() % 4 + 1, 4, frame.x());
                forged = share_bytes(CodecId::Shamir, frame.seq(), kmx, 0, frame.payload());
                ShareRef::decode(&forged).unwrap()
            } else {
                frame
            };
            let want = reference.accept(&frame, now);
            let got = table.accept_into(&frame, now, &mut decoded);
            if got == AcceptOutcome::Completed {
                prop_assert!(alien || &decoded == payload, "step {} decoded garbage", step);
            }
            prop_assert_eq!(got, want, "step {} at {}", step, now);
            prop_assert_eq!(table.stats(), reference.stats, "step {} at {}", step, now);
            prop_assert_eq!(table.pending_symbols(), reference.pending_symbols());
            prop_assert_eq!(table.buffered_bytes(), reference.buffered_bytes());
            prop_assert!(table.resolved_records() <= resolved_cap);
            prop_assert!(reference.resolved_records() <= resolved_cap);
            if armed.is_none() {
                armed = table.next_sweep_at();
            }
            match armed {
                // On the grid, ahead of the clock, and only while
                // something is buffered.
                Some(at) => {
                    prop_assert!(at > now && at.as_nanos() % period.as_nanos() == 0);
                }
                None => prop_assert_eq!(table.pending_symbols(), 0),
            }
        }
    }
}
