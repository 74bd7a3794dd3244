//! The in-memory symbol loop behind `mem_bulk`, `mem_fleet` and
//! `mem_hostile`: offer a symbol, carry its datagrams through a channel
//! the harness owns, deliver them, collect the reconstruction, check it.
//!
//! [`Driver`] is the harness side: inputs from the seed, the channel
//! (drop, duplicate, shuffle, interleave, wrong-shard delivery), and the
//! bookkeeping that decides for every symbol whether it *should* have
//! been delivered. [`Stack`] is the system side. The workload proper
//! runs on [`ShardStack`] (a `ShardSet`); the traced run drives the same
//! `Driver` over shallower stacks (see `layers.rs`) to attribute cost.

use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::CodecId;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::reassembly::ReassemblyStats;
use mcss_remicss::wire::{demux_frame, DemuxFrame, ShareRef};
use mcss_server::{ServerConfig, ShardSet, ShardStatsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng as _, RngExt as _, SeedableRng as _};

use crate::input::{mix, Payloads};
use crate::trace::{Off, Probe};

pub const CHANNELS: usize = 5;
pub const SHARDS: usize = 2;

/// One in-memory workload.
#[derive(Debug, Clone)]
pub struct MemSpec {
    pub sessions: u32,
    pub kappa: f64,
    pub mu: f64,
    pub symbol_bytes: usize,
    pub codec: CodecId,
    /// Consecutive symbols offered to one session before moving to the
    /// next; above 1, a session has several symbols pending at once.
    pub burst: u64,
    /// Simulated time that passes per offered symbol. It sets how many
    /// sweep timers fire per symbol, so it is part of the workload.
    pub step_ns: u64,
    pub timeout: SimTime,
    /// Probability that the harness drops a datagram.
    pub drop: f64,
    /// Probability that it delivers a datagram twice.
    pub dup: f64,
    /// Probability that a datagram is read by the non-owning shard.
    pub detour: f64,
    /// Datagrams held back in the harness channel; a delivery picks one
    /// of them at random, which shuffles and interleaves symbols.
    pub depth: usize,
    /// Symbols per timed window.
    pub window_symbols: u64,
}

impl MemSpec {
    pub fn protocol(&self) -> Arc<ProtocolConfig> {
        Arc::new(
            ProtocolConfig::new(self.kappa, self.mu)
                .expect("workload (kappa, mu) are valid")
                .with_symbol_bytes(self.symbol_bytes)
                .with_codec(self.codec)
                .with_reassembly_timeout(self.timeout),
        )
    }
}

/// One datagram between the stack and the harness channel.
#[derive(Debug)]
pub struct Datagram {
    pub cid: u32,
    pub channel: usize,
    pub bytes: Vec<u8>,
}

/// The system under the harness, at one depth.
pub trait Stack {
    /// Offers `payload` as session `cid`'s next symbol and moves the
    /// datagrams it produced into `out`.
    fn offer<P: Probe>(
        &mut self,
        now: SimTime,
        cid: u32,
        payload: &[u8],
        out: &mut Vec<Datagram>,
        probe: &mut P,
    );
    /// Delivers one datagram; with `detour`, as read by a shard that
    /// does not own the session.
    fn deliver<P: Probe>(&mut self, now: SimTime, d: &Datagram, detour: bool, probe: &mut P);
    /// Returns a datagram's buffer once the channel is done with it.
    fn recycle<P: Probe>(&mut self, d: Datagram, probe: &mut P);
    /// Takes session `cid`'s oldest reconstructed symbol.
    fn pop_delivered<P: Probe>(&mut self, cid: u32, probe: &mut P) -> Option<(u64, Vec<u8>)>;
    /// Returns a reconstructed payload's buffer.
    fn recycle_delivered<P: Probe>(&mut self, cid: u32, payload: Vec<u8>, probe: &mut P);
    /// Lets simulated time `now` take effect (timers, queues).
    fn poll<P: Probe>(&mut self, now: SimTime, probe: &mut P);
}

/// The workload proper: a two-shard [`ShardSet`].
pub struct ShardStack {
    pub set: ShardSet,
}

impl ShardStack {
    pub fn new(spec: &MemSpec, seed: u64) -> Self {
        let protocol = spec.protocol();
        let mut set = ShardSet::new(&ServerConfig::with_shards(SHARDS));
        for cid in 0..spec.sessions {
            set.add_session(
                cid,
                Arc::clone(&protocol),
                CHANNELS,
                SourceMode::External,
                mix(seed, 0x5345_5353, u64::from(cid)),
            )
            .expect("session registers");
            set.start(SimTime::ZERO, cid);
        }
        ShardStack { set }
    }

    pub fn totals(&self) -> ShardStatsSnapshot {
        self.set.totals()
    }

    /// Receiver-side reassembly counters summed over every session,
    /// plus what the engines themselves flagged as wrong.
    pub fn session_totals(&self, sessions: u32) -> (ReassemblyStats, u64) {
        let mut sum = ReassemblyStats::default();
        let mut flagged = 0;
        for cid in 0..sessions {
            let report = self.set.report(cid, SimTime::from_secs(1));
            add_stats(&mut sum, &report.reassembly);
            flagged += report.corrupted_symbols + report.wire_errors;
        }
        (sum, flagged)
    }
}

/// Adds one table's counters to a running sum.
pub fn add_stats(sum: &mut ReassemblyStats, r: &ReassemblyStats) {
    sum.completed += r.completed;
    sum.timeout_evictions += r.timeout_evictions;
    sum.memory_evictions += r.memory_evictions;
    sum.duplicates += r.duplicates;
    sum.stale += r.stale;
    sum.inconsistent += r.inconsistent;
    sum.resolved_evictions += r.resolved_evictions;
    sum.decode_failures += r.decode_failures;
}

impl Stack for ShardStack {
    fn offer<P: Probe>(
        &mut self,
        now: SimTime,
        cid: u32,
        payload: &[u8],
        out: &mut Vec<Datagram>,
        probe: &mut P,
    ) {
        probe.enter("shard.offer");
        self.set.offer_symbol(now, cid, payload);
        probe.exit();
        let owner = self.set.shard_of(cid);
        probe.enter("shard.outbound_pop");
        while let Some(d) = self.set.shard_mut(owner).pop_outbound() {
            out.push(Datagram {
                cid: d.cid,
                channel: d.channel,
                bytes: d.bytes,
            });
        }
        probe.exit();
    }

    fn deliver<P: Probe>(&mut self, now: SimTime, d: &Datagram, detour: bool, probe: &mut P) {
        let owner = self.set.shard_of(d.cid);
        let (name, received_on) = if detour {
            ("shard.handoff", (owner + 1) % SHARDS)
        } else {
            ("shard.route", owner)
        };
        probe.enter(name);
        self.set
            .deliver_datagram(now, d.channel, Endpoint::B, &d.bytes, received_on);
        probe.exit();
    }

    // The two recycle calls are pool puts of a few nanoseconds, a
    // tenth of what a span around them would cost; their time stays in
    // the harness's own row.
    fn recycle<P: Probe>(&mut self, d: Datagram, _probe: &mut P) {
        let owner = self.set.shard_of(d.cid);
        self.set.shard_mut(owner).recycle_outbound(d.bytes);
    }

    fn pop_delivered<P: Probe>(&mut self, cid: u32, probe: &mut P) -> Option<(u64, Vec<u8>)> {
        let owner = self.set.shard_of(cid);
        probe.enter("shard.delivered_pop");
        let got = self.set.shard_mut(owner).pop_delivered(cid);
        probe.exit();
        got
    }

    fn recycle_delivered<P: Probe>(&mut self, cid: u32, payload: Vec<u8>, _probe: &mut P) {
        let owner = self.set.shard_of(cid);
        self.set.shard_mut(owner).recycle_delivered(cid, payload);
    }

    fn poll<P: Probe>(&mut self, now: SimTime, probe: &mut P) {
        probe.enter_every("shard.poll_timers");
        self.set.poll(now);
        probe.exit_every();
    }
}

/// What the harness knows about one offered symbol.
#[derive(Debug, Clone, Copy, Default)]
struct SymRec {
    id: u64,
    k: u8,
    /// Abscissas of the shares delivered so far, one bit each.
    got: u32,
    /// Deliveries still to come (duplicates included).
    outstanding: u8,
    delivered: bool,
    offered_ns: u64,
}

struct Flight {
    id: u64,
    x: u8,
    /// Extra deliveries of this datagram still to make.
    dups: u8,
    d: Datagram,
}

/// Running totals; a phase is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub offered: u64,
    /// Symbols all of whose datagrams have been dropped or delivered.
    pub finalized: u64,
    /// Finalized symbols the stack reconstructed.
    pub delivered: u64,
    /// Finalized symbols whose fate differs from what the harness
    /// computed from its own injection (at least `k` distinct shares
    /// delivered means reconstructed, fewer means not).
    pub mismatched: u64,
    /// Reconstructions whose bytes differ from the offered payload.
    pub corrupt: u64,
    /// Reconstructions of a symbol already reconstructed or unknown.
    pub twice: u64,
    /// Deliveries the channel made later than the reassembly timeout
    /// (would make the expectation above ill-defined; must stay 0).
    pub late: u64,
    pub datagrams: u64,
    pub wire_bytes: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub detoured: u64,
    pub sum_k: u64,
    pub sum_m: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            offered: self.offered - earlier.offered,
            finalized: self.finalized - earlier.finalized,
            delivered: self.delivered - earlier.delivered,
            mismatched: self.mismatched - earlier.mismatched,
            corrupt: self.corrupt - earlier.corrupt,
            twice: self.twice - earlier.twice,
            late: self.late - earlier.late,
            datagrams: self.datagrams - earlier.datagrams,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            dropped: self.dropped - earlier.dropped,
            duplicated: self.duplicated - earlier.duplicated,
            detoured: self.detoured - earlier.detoured,
            sum_k: self.sum_k - earlier.sum_k,
            sum_m: self.sum_m - earlier.sum_m,
        }
    }

    /// Symbols whose outcome is wrong, by any of the checks.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.corrupt + self.twice + self.late
    }
}

/// Records of symbols whose datagrams may still be in the channel,
/// indexed by symbol id modulo the ring size. The channel holds at most
/// `depth` datagrams and empties by random choice, so a datagram
/// outliving this many symbols is not a case that occurs; the id check
/// on every access turns it into a panic rather than a wrong count.
const RING: usize = 4096;

pub struct Driver {
    spec: MemSpec,
    payloads: Payloads,
    rng: StdRng,
    now_ns: u64,
    next_id: u64,
    ring: Vec<SymRec>,
    flight: Vec<Flight>,
    fresh: Vec<Datagram>,
    payload: Vec<u8>,
    pub counters: Counters,
}

impl Driver {
    pub fn new(spec: &MemSpec, seed: u64) -> Self {
        Driver {
            spec: spec.clone(),
            payloads: Payloads::new(seed, spec.symbol_bytes),
            rng: StdRng::seed_from_u64(mix(seed, 0x4452_4956, 0)),
            now_ns: 0,
            next_id: 0,
            ring: vec![SymRec::default(); RING],
            flight: Vec::with_capacity(spec.depth + 2 * CHANNELS),
            fresh: Vec::with_capacity(CHANNELS),
            payload: Vec::with_capacity(spec.symbol_bytes),
            counters: Counters::default(),
        }
    }

    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }

    /// Symbol `id` is symbol `seq` of session `cid`: sessions take turns
    /// in bursts of `spec.burst`.
    fn locate(&self, id: u64) -> (u32, u64) {
        let burst = self.spec.burst;
        let per_round = burst * u64::from(self.spec.sessions);
        let cid = (id % per_round) / burst;
        let seq = (id / per_round) * burst + id % burst;
        (cid as u32, seq)
    }

    fn id_of(&self, cid: u32, seq: u64) -> u64 {
        let burst = self.spec.burst;
        let per_round = burst * u64::from(self.spec.sessions);
        (seq / burst) * per_round + u64::from(cid) * burst + seq % burst
    }

    /// Offers the next symbol and works the channel back down to its
    /// depth.
    pub fn step<S: Stack, P: Probe>(&mut self, stack: &mut S, probe: &mut P) {
        let id = self.next_id;
        self.next_id += 1;
        probe.symbol(id);
        probe.enter("harness.symbol");
        let (cid, seq) = self.locate(id);
        self.now_ns += self.spec.step_ns;
        let now = self.now();
        let mut payload = std::mem::take(&mut self.payload);
        self.payloads.fill(cid, seq, &mut payload);
        let mut fresh = std::mem::take(&mut self.fresh);
        stack.offer(now, cid, &payload, &mut fresh, probe);
        self.payload = payload;
        self.counters.offered += 1;

        let mut rec = SymRec {
            id,
            offered_ns: self.now_ns,
            ..SymRec::default()
        };
        self.counters.sum_m += fresh.len() as u64;
        for d in fresh.drain(..) {
            let share = share_of(&d.bytes);
            assert_eq!(share.seq(), seq, "engine numbers symbols as offered");
            rec.k = share.k();
            self.counters.datagrams += 1;
            self.counters.wire_bytes += d.bytes.len() as u64;
            if self.spec.drop > 0.0 && self.rng.random_bool(self.spec.drop) {
                self.counters.dropped += 1;
                stack.recycle(d, probe);
                continue;
            }
            let dups = u8::from(self.spec.dup > 0.0 && self.rng.random_bool(self.spec.dup));
            self.counters.duplicated += u64::from(dups);
            rec.outstanding += 1 + dups;
            self.flight.push(Flight {
                id,
                x: share.x(),
                dups,
                d,
            });
        }
        self.fresh = fresh;
        self.counters.sum_k += u64::from(rec.k);
        self.ring[id as usize % RING] = rec;
        if rec.outstanding == 0 {
            self.finalize(id);
        }
        while self.flight.len() > self.spec.depth {
            self.deliver_one(stack, probe);
        }
        stack.poll(now, probe);
        probe.exit();
    }

    fn deliver_one<S: Stack, P: Probe>(&mut self, stack: &mut S, probe: &mut P) {
        let pick = (self.rng.next_u64() % self.flight.len() as u64) as usize;
        let detour = self.spec.detour > 0.0 && self.rng.random_bool(self.spec.detour);
        self.counters.detoured += u64::from(detour);
        let now = self.now();
        let flight = &mut self.flight[pick];
        stack.deliver(now, &flight.d, detour, probe);
        let (id, cid) = (flight.id, flight.d.cid);
        let rec = &mut self.ring[id as usize % RING];
        assert_eq!(rec.id, id, "symbol record outlived by its datagram");
        rec.got |= 1 << flight.x;
        rec.outstanding -= 1;
        if self.now_ns - rec.offered_ns >= self.spec.timeout.as_nanos() {
            self.counters.late += 1;
        }
        let (due, outstanding) = (
            rec.got.count_ones() >= u32::from(rec.k) && !rec.delivered,
            rec.outstanding,
        );
        if flight.dups > 0 {
            flight.dups -= 1;
        } else {
            let done = self.flight.swap_remove(pick);
            stack.recycle(done.d, probe);
        }
        // The harness looks for a reconstruction exactly when its own
        // count says one is due; `finish` sweeps for any it did not
        // expect.
        if due {
            self.collect(stack, cid, probe);
        }
        if outstanding == 0 {
            self.finalize(id);
        }
    }

    fn collect<S: Stack, P: Probe>(&mut self, stack: &mut S, cid: u32, probe: &mut P) {
        while let Some((seq, payload)) = stack.pop_delivered(cid, probe) {
            let id = self.id_of(cid, seq);
            let rec = &mut self.ring[id as usize % RING];
            if rec.id != id || rec.delivered {
                self.counters.twice += 1;
            } else {
                rec.delivered = true;
            }
            if !self.payloads.matches(cid, seq, &payload) {
                self.counters.corrupt += 1;
            }
            stack.recycle_delivered(cid, payload, probe);
        }
    }

    fn finalize(&mut self, id: u64) {
        let rec = self.ring[id as usize % RING];
        let expected = rec.got.count_ones() >= u32::from(rec.k);
        self.counters.finalized += 1;
        self.counters.delivered += u64::from(rec.delivered);
        self.counters.mismatched += u64::from(expected != rec.delivered);
    }

    /// Runs `symbols` steps.
    pub fn run<S: Stack, P: Probe>(&mut self, stack: &mut S, symbols: u64, probe: &mut P) {
        for _ in 0..symbols {
            self.step(stack, probe);
        }
    }

    /// Empties the channel and looks on every session for
    /// reconstructions the harness did not expect. Untraced: it is not
    /// part of any window.
    pub fn finish<S: Stack>(&mut self, stack: &mut S) {
        let probe = &mut Off;
        while !self.flight.is_empty() {
            self.deliver_one(stack, probe);
        }
        for cid in 0..self.spec.sessions {
            while let Some((_, payload)) = stack.pop_delivered(cid, probe) {
                self.counters.twice += 1;
                stack.recycle_delivered(cid, payload, probe);
            }
        }
    }
}

/// The share header of a datagram, with or without the demux prefix.
fn share_of(bytes: &[u8]) -> ShareRef<'_> {
    let inner = match demux_frame(bytes).expect("stack emits framed datagrams") {
        DemuxFrame::Cid { inner, .. } => inner,
        DemuxFrame::Legacy(frame) => frame,
    };
    ShareRef::decode(inner).expect("stack emits share frames")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(drop: f64) -> MemSpec {
        MemSpec {
            sessions: 8,
            kappa: 2.0,
            mu: 3.0,
            symbol_bytes: 64,
            codec: CodecId::Shamir,
            burst: 3,
            step_ns: 10_000,
            timeout: SimTime::from_millis(20),
            drop,
            dup: 0.1,
            detour: 0.5,
            depth: if drop > 0.0 { 12 } else { 0 },
            window_symbols: 100,
        }
    }

    #[test]
    fn ids_map_to_sessions_and_back() {
        let d = Driver::new(&spec(0.0), 1);
        for id in 0..1000 {
            let (cid, seq) = d.locate(id);
            assert!(cid < 8);
            assert_eq!(d.id_of(cid, seq), id);
        }
        assert_eq!(d.locate(0), (0, 0));
        assert_eq!(d.locate(3), (1, 0));
        assert_eq!(d.locate(24), (0, 3));
    }

    #[test]
    fn lossless_loop_delivers_everything() {
        let spec = spec(0.0);
        let mut stack = ShardStack::new(&spec, 5);
        let mut driver = Driver::new(&spec, 5);
        driver.run(&mut stack, 2_000, &mut Off);
        driver.finish(&mut stack);
        let c = driver.counters;
        assert_eq!((c.finalized, c.delivered, c.failed()), (2_000, 2_000, 0));
        assert_eq!(c.wire_bytes, 2_000 * 3 * (7 + 24 + 64));
    }

    #[test]
    fn hostile_loop_matches_the_harness_expectation() {
        let spec = spec(0.3);
        let mut stack = ShardStack::new(&spec, 9);
        let mut driver = Driver::new(&spec, 9);
        driver.run(&mut stack, 5_000, &mut Off);
        driver.finish(&mut stack);
        let c = driver.counters;
        assert_eq!(c.finalized, 5_000);
        assert_eq!(c.failed(), 0, "{c:?}");
        assert!(c.delivered < 5_000 && c.delivered > 2_500, "{c:?}");
        let (reassembly, flagged) = stack.session_totals(spec.sessions);
        assert_eq!(flagged, 0);
        assert_eq!(reassembly.completed, c.delivered);
        assert!(reassembly.timeout_evictions > 0);
        assert!(stack.totals().handoff_in > 0);
    }
}
