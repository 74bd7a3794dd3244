//! The shallower stacks of the traced run, and the isolated calls.
//!
//! The same [`Driver`](crate::memloop::Driver) that runs a workload on
//! the `ShardSet` runs it here on less of the system, so the cost of a
//! layer is the difference between two depths under identical input:
//!
//! * level 0, [`codec_only`]: split and reconstruct, nothing else;
//! * level 1, [`WireStack`]: scheduler draw, wire header, codec split,
//!   demux, share decode and a `ReassemblyTable` per session, assembled
//!   by hand the way the engine assembles them;
//! * level 2, [`EngineStack`]: one `Engine` per session behind the
//!   harness's own action pump and timer wheel, no shard;
//! * level 3 is the workload proper (`ShardStack`).

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mcss_base::{BufferPool, Endpoint, EventQueue, QueueKind, SimTime};
use mcss_codec::{CodecId, CodecScratch};
use mcss_gf256::{slice as gf, Gf256};
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::{ProtocolConfig, SchedulerKind};
use mcss_remicss::engine::{Engine, SourceMode};
use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyStats, ReassemblyTable};
use mcss_remicss::scheduler::{
    ChannelState, Choice, DynamicScheduler, RoundRobinScheduler, Scheduler as _, SessionScheduler,
    StaticScheduler,
};
use mcss_remicss::wire::{demux_frame, put_cid_prefix, put_share_header_for, DemuxFrame, ShareRef};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use crate::input::{mix, Payloads};
use crate::memloop::{add_stats, Datagram, Stack, CHANNELS};
use crate::stats::CpuRotation;
use crate::trace::Probe;

fn scheduler_for(config: &ProtocolConfig) -> SessionScheduler {
    let (kappa, mu) = (config.kappa(), config.mu());
    match config.scheduler() {
        SchedulerKind::Dynamic => SessionScheduler::Dynamic(
            DynamicScheduler::new(kappa, mu, CHANNELS).expect("workload (kappa, mu) are valid"),
        ),
        SchedulerKind::Static(schedule) => {
            SessionScheduler::Static(StaticScheduler::new(Arc::clone(schedule)))
        }
        SchedulerKind::RoundRobin => SessionScheduler::RoundRobin(
            RoundRobinScheduler::new(kappa, mu, CHANNELS).expect("workload (kappa, mu) are valid"),
        ),
    }
}

/// The period of the engine's sweep timer, recomputed here because the
/// engine keeps it private: a quarter of the reassembly timeout, at
/// least a millisecond.
fn sweep_period(config: &ProtocolConfig) -> SimTime {
    SimTime::from_nanos((config.reassembly_timeout().as_nanos() / 4).max(1_000_000))
}

// ---------------------------------------------------------------- level 2

struct EngineSlot {
    engine: Engine,
    rng: StdRng,
    delivered: VecDeque<(u64, Vec<u8>)>,
}

/// Level 2: bare engines, the harness doing what a shard does for them.
pub struct EngineStack {
    slots: Vec<EngineSlot>,
    timers: EventQueue<(u32, u64)>,
    timer_seq: u64,
    /// Actions drained from the engines.
    pub actions: u64,
    stray: Vec<Datagram>,
}

/// Drains one engine's action queue into the harness's structures.
fn pump(
    slot: &mut EngineSlot,
    cid: u32,
    timers: &mut EventQueue<(u32, u64)>,
    timer_seq: &mut u64,
    actions: &mut u64,
    out: &mut Vec<Datagram>,
) {
    while let Some(action) = slot.engine.poll_action() {
        *actions += 1;
        match action {
            Action::SendShare { channel, frame, .. } => {
                slot.engine.share_send_ok(channel);
                out.push(Datagram {
                    cid,
                    channel,
                    bytes: frame,
                });
            }
            Action::SendControl { frame, .. } => slot.engine.recycle(frame),
            Action::SetTimer { token, at } => {
                *timer_seq += 1;
                timers.push(at, *timer_seq, (cid, token));
            }
            Action::DeliverSymbol { seq, payload } => slot.delivered.push_back((seq, payload)),
        }
    }
}

impl EngineStack {
    pub fn new(protocol: &Arc<ProtocolConfig>, sessions: u32, seed: u64) -> Self {
        let mut stack = EngineStack {
            slots: Vec::with_capacity(sessions as usize),
            timers: EventQueue::new(QueueKind::Wheel),
            timer_seq: 0,
            actions: 0,
            stray: Vec::new(),
        };
        for cid in 0..sessions {
            let engine = Engine::new(Arc::clone(protocol), CHANNELS, SourceMode::External)
                .expect("workload (kappa, mu) are valid");
            let mut slot = EngineSlot {
                engine,
                rng: StdRng::seed_from_u64(mix(seed, 0x5345_5353, u64::from(cid))),
                delivered: VecDeque::new(),
            };
            slot.engine
                .handle(SimTime::ZERO, Event::Started, &mut slot.rng);
            pump(
                &mut slot,
                cid,
                &mut stack.timers,
                &mut stack.timer_seq,
                &mut stack.actions,
                &mut stack.stray,
            );
            stack.slots.push(slot);
        }
        stack
    }

    /// Receiver-side reassembly counters summed over every session.
    pub fn reassembly(&self) -> ReassemblyStats {
        let mut sum = ReassemblyStats::default();
        for slot in &self.slots {
            add_stats(
                &mut sum,
                &slot.engine.report(SimTime::from_secs(1)).reassembly,
            );
        }
        sum
    }
}

impl Stack for EngineStack {
    fn offer<P: Probe>(
        &mut self,
        now: SimTime,
        cid: u32,
        payload: &[u8],
        out: &mut Vec<Datagram>,
        probe: &mut P,
    ) {
        let slot = &mut self.slots[cid as usize];
        probe.enter("engine.symbol");
        slot.engine
            .handle(now, Event::SymbolReady { payload }, &mut slot.rng);
        pump(
            slot,
            cid,
            &mut self.timers,
            &mut self.timer_seq,
            &mut self.actions,
            out,
        );
        probe.exit();
    }

    fn deliver<P: Probe>(&mut self, now: SimTime, d: &Datagram, _detour: bool, probe: &mut P) {
        let slot = &mut self.slots[d.cid as usize];
        probe.enter("engine.frame");
        slot.engine
            .handle_frame(now, d.channel, Endpoint::B, &d.bytes, &mut slot.rng)
            .expect("engine decodes its own frames");
        pump(
            slot,
            d.cid,
            &mut self.timers,
            &mut self.timer_seq,
            &mut self.actions,
            &mut self.stray,
        );
        probe.exit();
        debug_assert!(self.stray.is_empty(), "a receive emitted shares");
    }

    fn recycle<P: Probe>(&mut self, d: Datagram, _probe: &mut P) {
        self.slots[d.cid as usize].engine.recycle(d.bytes);
    }

    fn pop_delivered<P: Probe>(&mut self, cid: u32, _probe: &mut P) -> Option<(u64, Vec<u8>)> {
        self.slots[cid as usize].delivered.pop_front()
    }

    fn recycle_delivered<P: Probe>(&mut self, cid: u32, payload: Vec<u8>, _probe: &mut P) {
        self.slots[cid as usize].engine.recycle(payload);
    }

    fn poll<P: Probe>(&mut self, now: SimTime, probe: &mut P) {
        probe.enter_every("engine.timer");
        while matches!(self.timers.next_at(), Some(at) if at <= now) {
            let (_, _, (cid, token)) = self.timers.pop().expect("peeked entry exists");
            let slot = &mut self.slots[cid as usize];
            slot.engine
                .handle(now, Event::TimerFired { token }, &mut slot.rng);
            pump(
                slot,
                cid,
                &mut self.timers,
                &mut self.timer_seq,
                &mut self.actions,
                &mut self.stray,
            );
        }
        probe.exit_every();
    }
}

// ---------------------------------------------------------------- level 1

struct WireSlot {
    next_seq: u64,
    table: ReassemblyTable,
    delivered: VecDeque<(u64, Vec<u8>)>,
}

/// Level 1: scheduler, wire format, codec and reassembly tables, no
/// engine.
pub struct WireStack {
    codec: CodecId,
    symbol_bytes: usize,
    threshold: SimTime,
    slots: Vec<WireSlot>,
    scheduler: SessionScheduler,
    backlogs: [SimTime; CHANNELS],
    choice: Choice,
    scratch: CodecScratch,
    rng: StdRng,
    pool: BufferPool,
    outs: Vec<Vec<u8>>,
    rx: Vec<u8>,
    sweeps: EventQueue<u32>,
    sweep_seq: u64,
    sweep_period: SimTime,
    /// Most share bytes any one table held at once.
    pub buffered_peak: usize,
}

impl WireStack {
    pub fn new(protocol: &Arc<ProtocolConfig>, sessions: u32, seed: u64) -> Self {
        let sweep_period = sweep_period(protocol);
        let mut sweeps = EventQueue::new(QueueKind::Wheel);
        let slots = (0..sessions)
            .map(|cid| {
                sweeps.push(sweep_period, u64::from(cid), cid);
                WireSlot {
                    next_seq: 0,
                    table: ReassemblyTable::new(
                        protocol.reassembly_timeout(),
                        protocol.reassembly_capacity_bytes(),
                    )
                    .with_resolved_cap(protocol.reassembly_resolved_cap()),
                    delivered: VecDeque::new(),
                }
            })
            .collect();
        WireStack {
            codec: protocol.codec(),
            symbol_bytes: protocol.symbol_bytes(),
            threshold: protocol.readiness_threshold(),
            slots,
            scheduler: scheduler_for(protocol),
            backlogs: [SimTime::ZERO; CHANNELS],
            choice: Choice::default(),
            scratch: CodecScratch::new(),
            rng: StdRng::seed_from_u64(mix(seed, 0x5749_5245, 0)),
            pool: BufferPool::new(),
            outs: Vec::with_capacity(CHANNELS),
            rx: Vec::new(),
            sweeps,
            sweep_seq: u64::from(sessions),
            sweep_period,
            buffered_peak: 0,
        }
    }

    pub fn reassembly(&self) -> ReassemblyStats {
        let mut sum = ReassemblyStats::default();
        for slot in &self.slots {
            add_stats(&mut sum, &slot.table.stats());
        }
        sum
    }

    /// Share buffers the tables' pools served without allocating, over
    /// all they served.
    pub fn pool_hit_ratio(&self) -> f64 {
        let (hits, misses) = self.slots.iter().fold((0, 0), |(h, m), s| {
            (h + s.table.pool_hits(), m + s.table.pool_misses())
        });
        hits as f64 / (hits + misses).max(1) as f64
    }
}

impl Stack for WireStack {
    fn offer<P: Probe>(
        &mut self,
        now: SimTime,
        cid: u32,
        payload: &[u8],
        out: &mut Vec<Datagram>,
        probe: &mut P,
    ) {
        debug_assert_eq!(payload.len(), self.symbol_bytes);
        let slot = &mut self.slots[cid as usize];
        let seq = slot.next_seq;
        slot.next_seq += 1;
        probe.enter("scheduler.draw");
        let state = ChannelState::new(&self.backlogs, self.threshold);
        self.scheduler
            .choose_into(&state, &mut self.rng, &mut self.choice);
        probe.exit();
        let (k, m) = (self.choice.k, self.choice.channels.len() as u8);
        let share_len = self.codec.share_len(payload.len(), k, m);
        probe.enter("wire.header");
        for j in 0..m {
            let mut buf = self.pool.take();
            put_cid_prefix(&mut buf, cid);
            put_share_header_for(
                &mut buf,
                self.codec,
                seq,
                k,
                m,
                j + 1,
                now.as_nanos(),
                share_len,
            )
            .expect("scheduler draws valid share parameters");
            self.outs.push(buf);
        }
        probe.exit();
        probe.enter("codec.split");
        self.codec
            .split_into(
                payload,
                k,
                m,
                &mut self.rng,
                &mut self.scratch,
                &mut self.outs,
            )
            .expect("split cannot fail");
        probe.exit();
        for (bytes, &channel) in self.outs.drain(..).zip(&self.choice.channels) {
            out.push(Datagram {
                cid,
                channel,
                bytes,
            });
        }
    }

    fn deliver<P: Probe>(&mut self, now: SimTime, d: &Datagram, _detour: bool, probe: &mut P) {
        probe.enter("wire.decode");
        let Ok(DemuxFrame::Cid { cid, inner }) = demux_frame(&d.bytes) else {
            panic!("level 1 frames carry the demux prefix");
        };
        let share = ShareRef::decode(inner).expect("level 1 decodes its own frames");
        probe.exit();
        let slot = &mut self.slots[cid as usize];
        probe.enter("reassembly.accept");
        let outcome = slot.table.accept_into(&share, now, &mut self.rx);
        if outcome == AcceptOutcome::Completed {
            probe.exit();
            let payload = std::mem::replace(&mut self.rx, self.pool.take());
            slot.delivered.push_back((share.seq(), payload));
        } else {
            probe.exit_as("reassembly.accept_partial");
        }
        self.buffered_peak = self.buffered_peak.max(slot.table.buffered_bytes());
    }

    fn recycle<P: Probe>(&mut self, d: Datagram, _probe: &mut P) {
        self.pool.put(d.bytes);
    }

    fn pop_delivered<P: Probe>(&mut self, cid: u32, _probe: &mut P) -> Option<(u64, Vec<u8>)> {
        self.slots[cid as usize].delivered.pop_front()
    }

    fn recycle_delivered<P: Probe>(&mut self, _cid: u32, payload: Vec<u8>, _probe: &mut P) {
        self.pool.put(payload);
    }

    fn poll<P: Probe>(&mut self, now: SimTime, probe: &mut P) {
        probe.enter_every("reassembly.sweep");
        while matches!(self.sweeps.next_at(), Some(at) if at <= now) {
            let (_, _, cid) = self.sweeps.pop().expect("peeked entry exists");
            self.slots[cid as usize].table.sweep(now);
            self.sweep_seq += 1;
            self.sweeps
                .push(now + self.sweep_period, self.sweep_seq, cid);
        }
        probe.exit_every();
    }
}

// ---------------------------------------------------------------- level 0

/// What the codec alone moved.
#[derive(Debug, Default)]
pub struct CodecRun {
    pub symbols: u64,
    /// Reconstructions that did not equal the secret.
    pub wrong: u64,
    /// Bytes the codec's kernels wrote and read, computed from the
    /// drawn `(k, m)`: `m·k + k` share-lengths per Shamir symbol
    /// (`m` evaluations of a degree `k−1` polynomial, `k` scaled
    /// additions back), `m + k` share-lengths per XOR symbol.
    pub kernel_bytes: u64,
    /// Wall nanoseconds per symbol, one reading per window.
    pub window_ns: Vec<f64>,
}

/// Symbols per window of level 0.
pub const CODEC_WINDOW: u64 = 1024;

/// Level 0: the workload's `(k, m, payload)` sequence through
/// `split_into` and `reconstruct_into`, in windows of [`CODEC_WINDOW`]
/// symbols, for `seconds`.
pub fn codec_only<P: Probe>(
    protocol: &ProtocolConfig,
    seed: u64,
    seconds: f64,
    probe: &mut P,
) -> CodecRun {
    let codec = protocol.codec();
    let payloads = Payloads::new(seed, protocol.symbol_bytes());
    let mut scheduler = scheduler_for(protocol);
    let backlogs = [SimTime::ZERO; CHANNELS];
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x434f_4445, 0));
    let mut choice = Choice::default();
    let mut scratch = CodecScratch::new();
    let mut outs: Vec<Vec<u8>> = Vec::with_capacity(CHANNELS);
    let mut spare: Vec<Vec<u8>> = (0..CHANNELS).map(|_| Vec::new()).collect();
    let mut payload = Vec::new();
    let mut rebuilt = Vec::new();
    let mut run = CodecRun::default();
    let mut rotation = CpuRotation::start();
    let start = Instant::now();
    while run.window_ns.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rotation.advance();
        let window = Instant::now();
        for _ in 0..CODEC_WINDOW {
            let id = run.symbols;
            run.symbols += 1;
            probe.symbol(id);
            let state = ChannelState::new(&backlogs, protocol.readiness_threshold());
            scheduler.choose_into(&state, &mut rng, &mut choice);
            let (k, m) = (choice.k, choice.channels.len() as u8);
            payloads.fill(0, id, &mut payload);
            for _ in 0..m {
                let mut buf = spare.pop().expect("at most CHANNELS shares");
                buf.clear();
                outs.push(buf);
            }
            probe.enter("codec.split");
            codec
                .split_into(&payload, k, m, &mut rng, &mut scratch, &mut outs)
                .expect("split cannot fail");
            probe.exit();
            // Any k of the m shares, starting anywhere: what an
            // unordered channel hands the receiver.
            let first = (rng.next_u64() % u64::from(m)) as usize;
            let mut picked: [(u8, &[u8]); CHANNELS] = [(0, &[]); CHANNELS];
            for (i, slot) in picked.iter_mut().take(k as usize).enumerate() {
                let j = (first + i) % m as usize;
                *slot = (j as u8 + 1, outs[j].as_slice());
            }
            probe.enter("codec.reconstruct");
            codec
                .reconstruct_into(k, m, &picked[..k as usize], &mut rebuilt)
                .expect("k distinct shares reconstruct");
            probe.exit();
            run.wrong += u64::from(rebuilt != payload);
            let share_len = outs[0].len() as u64;
            let (k, m) = (u64::from(k), u64::from(m));
            run.kernel_bytes += share_len
                * match codec {
                    CodecId::Shamir => m * k + k,
                    CodecId::Xor2d => m + k,
                };
            spare.append(&mut outs);
        }
        run.window_ns
            .push(window.elapsed().as_nanos() as f64 / CODEC_WINDOW as f64);
    }
    run
}

// ----------------------------------------------------------- isolated calls

/// Times `body` over enough iterations to fill `budget_s`, in batches,
/// and returns the fastest batch's nanoseconds per iteration (fastest
/// for the reason given at `Metric::fastest`; the thread changes CPU
/// every few batches to meet a quiet one).
fn time_per_iter(budget_s: f64, mut body: impl FnMut()) -> f64 {
    const BATCH: u32 = 256;
    const BATCHES_PER_CPU: usize = 32;
    let mut rotation = CpuRotation::start();
    let mut readings = Vec::new();
    let start = Instant::now();
    while readings.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        if readings.len() % BATCHES_PER_CPU == 0 {
            rotation.advance();
        }
        let t = Instant::now();
        for _ in 0..BATCH {
            body();
        }
        readings.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    crate::stats::Summary::of(&readings).min
}

/// Wall-time budget of each isolated measurement.
const ISOLATED_S: f64 = 0.05;

/// The three field kernels the codecs are built from, at the share
/// length the workload produces, in nanoseconds per KiB.
pub struct KernelTimes {
    pub scale_add_ns_per_kib: f64,
    pub horner3_ns_per_kib: f64,
    pub xor_ns_per_kib: f64,
}

pub fn kernels(share_len: usize, seed: u64) -> KernelTimes {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x4b45_524e, share_len as u64));
    let mut plane = || {
        let mut v = vec![0u8; share_len];
        rng.fill_bytes(&mut v);
        v
    };
    let (a, b, c) = (plane(), plane(), plane());
    let mut dst = plane();
    let kib = share_len as f64 / 1024.0;
    let x = Gf256::new(0x53);
    let scale_add = time_per_iter(ISOLATED_S, || {
        gf::scale_add_assign(black_box(&mut dst), black_box(&a), x);
    });
    let planes = [a.as_slice(), b.as_slice(), c.as_slice()];
    let horner3 = time_per_iter(ISOLATED_S, || {
        gf::horner_into(black_box(&mut dst), black_box(&planes), x);
    });
    let xor = time_per_iter(ISOLATED_S, || {
        gf::xor_into(black_box(&mut dst), black_box(&a), black_box(&b));
    });
    KernelTimes {
        scale_add_ns_per_kib: scale_add / kib,
        horner3_ns_per_kib: horner3 / kib,
        xor_ns_per_kib: xor / kib,
    }
}

/// One `BufferPool` take and put.
pub fn pool_take_put_ns() -> f64 {
    let mut pool = BufferPool::new();
    pool.put(Vec::with_capacity(2048));
    time_per_iter(ISOLATED_S, || {
        let buf = pool.take();
        pool.put(black_box(buf));
    })
}

/// One pop and one push on an `EventQueue` holding `depth` timers a
/// sweep period apart, the shape of a shard's or simulator's queue.
pub fn queue_push_pop_ns(kind: QueueKind, depth: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5155_4555, depth as u64));
    let mut queue = EventQueue::new(kind);
    let period = 125_000_000u64;
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        queue.push(SimTime::from_nanos(rng.next_u64() % period), seq, seq);
    }
    time_per_iter(ISOLATED_S, || {
        let (at, _, item) = queue.pop().expect("queue holds depth entries");
        seq += 1;
        queue.push(at + SimTime::from_nanos(period), seq, black_box(item));
    })
}

/// One `Histogram::record` and one `span!` of the telemetry layer every
/// other layer calls into.
pub fn obs_ns() -> (f64, f64) {
    let hist = mcss_obs::Histogram::new();
    let mut v = 1u64;
    let record = time_per_iter(ISOLATED_S, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(black_box(v >> 40));
    });
    let span = time_per_iter(ISOLATED_S, || {
        let _span = mcss_obs::span!("benchmark.probe");
    });
    (record, span)
}
