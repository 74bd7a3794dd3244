//! Proves the zero-allocation claims: in steady state, a ReMICSS session
//! moves a symbol from source → split → frame → link → reassemble →
//! reconstruct with **zero heap allocations**, for every `k ≤ m ≤ 8` and
//! over links that lose shares — and the GF(2⁸) kernel layer underneath
//! (every backend available on the host, including the SIMD `pshufb`
//! path and the many-operand `eval` and `combine` kernels) allocates
//! nothing either: multiplier tables live in the caller-owned `MulTable`,
//! not per-call heap storage.
//!
//! A counting global allocator snapshots the allocation count after a
//! warmup window (pools filling, hash tables and event queues reaching
//! their high-water capacity) and asserts it does not move during a
//! measurement window in which thousands of symbols flow.
//!
//! The simulation runs on the binary-heap event queue, which holds the
//! network's deliveries too: the session phase measures exactly the
//! protocol data path (the wheel is pinned bit-identical against the
//! heap separately, see `engine_pin.rs`). The external-source phase
//! keeps the engine's timers on the timer wheel, with time moving, and
//! runs twice per codec: on a standalone `Engine`, and on a pool-less
//! `EngineCore` lent a pool, a partial slab, a demux prefix, a share key
//! and a scratch the way a server shard hosts it. Every split draws from a fresh
//! share stream (AES-128 in counter mode), as a host's do; the split
//! phases below open one per symbol too.
//!
//! It also proves the `mcss-obs` overhead contract: span timers, the
//! host's protocol counters, and delay/gap/residency histograms all
//! record on the data path, and none of them allocate in steady state. Telemetry
//! registration (span-site resolution, histogram bucket storage) happens
//! at session build and during the warmup window, never after.

#![cfg(feature = "sim")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{BufferPool, Endpoint, EventQueue};
use mcss_codec::{CodecId, ShareKey};
use mcss_core::{setups, ChannelSet};
use mcss_gf256::simd::{Backend, MulTable};
use mcss_gf256::Gf256;
use mcss_netsim::{QueueKind, SimTime, Simulator};
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{Backlogs, Engine, EngineCore, Lent, Scratch, SourceMode};
use mcss_remicss::metrics::HostMetrics;
use mcss_remicss::reassembly::Partials;
use mcss_remicss::session::{Session, Workload};
use mcss_remicss::testbed;
use mcss_remicss::wire::{self, DemuxFrame};
use rand::rngs::StdRng;
use rand::SeedableRng as _;

/// Counts allocations made by the measured thread only: the libtest
/// harness keeps its own main thread alive alongside the test thread,
/// and its bookkeeping (channel wakeups, output capture) allocates at
/// arbitrary times — a process-global count flakes on that noise. The
/// flag is const-initialized so reading it inside the allocator cannot
/// itself allocate (no lazy TLS initialization).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ON_MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if ON_MEASURED_THREAD.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is shared, so the checks run as phases
/// of a single `#[test]` — concurrent test threads would both count
/// into the same windows.
#[test]
fn steady_state_symbol_path_is_allocation_free() {
    ON_MEASURED_THREAD.with(|flag| flag.set(true));
    gf256_kernels_phase();
    split_into_phase();
    xor_codec_phase();
    session_phase();
    for codec in CodecId::ALL {
        engine_external_phase(
            codec,
            Engine::new(external(codec), N, SourceMode::External).unwrap(),
        );
        engine_external_phase(codec, Hosted::new(external(codec)));
    }
}

/// The GF(2⁸) kernels themselves — including the SIMD path and the
/// many-operand `eval` and `combine`, register-held (up to 8 operands)
/// and beyond — perform zero heap allocations: the nibble and row
/// tables live in the caller-owned `MulTable` (stack or scratch), never
/// in per-call heap storage. Checked for every backend available
/// on this host, so on x86_64 CI this covers `simd` explicitly even
/// when the session phase below happens to run a different active
/// backend.
fn gf256_kernels_phase() {
    let mut dst = vec![0x5au8; 4096];
    let src = vec![0xc3u8; 4096];
    let planes: Vec<Vec<u8>> = (0..9).map(|p| vec![p as u8 + 1; 4096]).collect();
    let plane_refs: Vec<&[u8]> = planes.iter().map(Vec::as_slice).collect();
    let mut outs = vec![vec![0u8; 4096]; 9];
    // Force detection (and any env read) outside the counting window.
    let _ = Backend::active();
    for backend in Backend::ALL {
        if !backend.is_available() {
            continue;
        }
        let before = allocations();
        for x in [0u8, 1, 0x53] {
            let t = MulTable::new(Gf256::new(x));
            backend.scale_add_assign(&mut dst, &src, &t);
            backend.add_scaled_assign(&mut dst, &src, &t);
            backend.scale_assign(&mut dst, &t);
            backend.horner_into(&mut dst, &plane_refs[..4], &t);
        }
        for operands in [3, 9] {
            let shares = outs.iter_mut().zip(1..).take(operands);
            backend.eval_into(
                shares.map(|(out, x)| (Gf256::new(x), &mut out[..])),
                &plane_refs[..operands],
            );
            let weighted = plane_refs.iter().zip(1..).take(operands);
            backend.combine_into(&mut dst, weighted.map(|(&src, w)| (Gf256::new(w), src)));
        }
        let during = allocations() - before;
        assert_eq!(
            during,
            0,
            "backend {}: {during} allocations in the kernel hot path",
            backend.name()
        );
    }
}

/// `split_into` stays allocation-free per symbol on the dispatched
/// (vector) kernel path, drawing from a share stream opened per symbol
/// as a host opens them: warm scratch and output buffers, then
/// thousands of symbols with zero allocator traffic.
fn split_into_phase() {
    use mcss_shamir::{split_into, BatchScratch, Params};

    let params = Params::new(3, 5).unwrap();
    let key = ShareKey::insecure_from_seed(7);
    let mut scratch = BatchScratch::new();
    let payload = vec![0xabu8; 1_250];
    let mut outs: Vec<Vec<u8>> = (0..5).map(|_| Vec::with_capacity(2_048)).collect();
    let mut split = |seq: u64, outs: &mut Vec<Vec<u8>>| {
        for o in outs.iter_mut() {
            o.clear();
        }
        let mut stream = key.stream(7, false, seq);
        split_into(&payload, params, &mut stream, &mut scratch, outs).unwrap();
    };
    for seq in 0..16 {
        split(seq, &mut outs);
    }
    let before = allocations();
    for seq in 16..1_016 {
        split(seq, &mut outs);
    }
    let during = allocations() - before;
    assert_eq!(
        during,
        0,
        "{during} allocations over 1000 split_into symbols on backend {}",
        Backend::active().name()
    );
}

/// The XOR/2D codec's own split + reconstruct loop is allocation-free
/// per symbol once the pad scratch and share buffers reach high water —
/// the same contract `split_into_phase` pins for Shamir. Reconstruction
/// reuses a warm output vector, so the whole round trip is measured.
fn xor_codec_phase() {
    use mcss_codec::xor2d;

    let (k, m) = (3u8, 5u8);
    let payload = vec![0xabu8; 1_250];
    let key = ShareKey::insecure_from_seed(7);
    let mut pad = Vec::new();
    let mut outs: Vec<Vec<u8>> = (0..m as usize).map(|_| Vec::with_capacity(2_048)).collect();
    let mut secret = Vec::with_capacity(2_048);
    let round = |seq: u64, outs: &mut Vec<Vec<u8>>, pad: &mut Vec<u8>, secret: &mut Vec<u8>| {
        for o in outs.iter_mut() {
            o.clear();
        }
        let mut stream = key.stream(7, false, seq);
        xor2d::split_into(&payload, k, m, &mut stream, pad, outs).unwrap();
        let shares: [(u8, &[u8]); 3] = [(1, &outs[0]), (3, &outs[2]), (5, &outs[4])];
        xor2d::reconstruct_with(k, m, 3, |i| shares[i].0, |i| shares[i].1, secret).unwrap();
        assert_eq!(secret.as_slice(), payload.as_slice());
    };
    for seq in 0..16 {
        round(seq, &mut outs, &mut pad, &mut secret);
    }
    let before = allocations();
    for seq in 16..1_016 {
        round(seq, &mut outs, &mut pad, &mut secret);
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "{during} allocations over 1000 XOR codec split+reconstruct rounds"
    );
}

/// Channels of the external-source phase.
const N: usize = 5;

/// The external-source phase's protocol, on `codec`.
fn external(codec: CodecId) -> Arc<ProtocolConfig> {
    Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(512)
            .with_reassembly_timeout(SimTime::from_millis(20))
            .with_codec(codec),
    )
}

/// What the external-source phase drives: an engine that owns its
/// buffers, or one that borrows them.
trait Host {
    const NAME: &'static str;
    fn handle(&mut self, now: SimTime, event: Event<'_>, rng: &mut StdRng);
    /// Feeds a frame this host emitted back to it, as host B receives it.
    fn loop_back(&mut self, now: SimTime, channel: usize, frame: &[u8], rng: &mut StdRng);
    fn poll_action(&mut self) -> Option<Action>;
    fn share_send_ok(&mut self, channel: usize);
    fn recycle(&mut self, buf: Vec<u8>);
    fn delivered(&self, window: SimTime) -> u64;
}

impl Host for Engine {
    const NAME: &'static str = "standalone";
    fn handle(&mut self, now: SimTime, event: Event<'_>, rng: &mut StdRng) {
        Engine::handle(self, now, event, rng);
    }
    fn loop_back(&mut self, now: SimTime, channel: usize, frame: &[u8], rng: &mut StdRng) {
        let _ = self.handle_frame(now, channel, Endpoint::B, frame, rng);
    }
    fn poll_action(&mut self) -> Option<Action> {
        Engine::poll_action(self)
    }
    fn share_send_ok(&mut self, channel: usize) {
        Engine::share_send_ok(self, channel);
    }
    fn recycle(&mut self, buf: Vec<u8>) {
        Engine::recycle(self, buf);
    }
    fn delivered(&self, window: SimTime) -> u64 {
        self.report(window).delivered_symbols
    }
}

/// A pool-less core hosted as a server shard hosts one: the pool, the
/// partial slab and the share key are the host's, frames come out behind a
/// connection-ID prefix, and shares are drawn on that ID's stream.
struct Hosted {
    core: EngineCore,
    pool: BufferPool,
    partials: Partials,
    key: ShareKey,
    prefix: Vec<u8>,
    scratch: Scratch,
    backlogs: Backlogs,
}

/// The hosted session's connection ID.
const HOSTED_CID: u32 = 0x00C0_FFEE;

impl Hosted {
    fn new(config: Arc<ProtocolConfig>) -> Self {
        let metrics = Arc::new(HostMetrics::new(N));
        let mut prefix = Vec::new();
        wire::put_cid_prefix(&mut prefix, HOSTED_CID);
        Hosted {
            core: EngineCore::new(config, N, SourceMode::External, metrics).unwrap(),
            pool: BufferPool::new(),
            partials: Partials::default(),
            key: ShareKey::generate(),
            prefix,
            scratch: Scratch::default(),
            backlogs: Backlogs::default(),
        }
    }
}

impl Host for Hosted {
    const NAME: &'static str = "hosted";
    fn handle(&mut self, now: SimTime, event: Event<'_>, rng: &mut StdRng) {
        let lent = &mut Lent {
            pool: &mut self.pool,
            partials: &mut self.partials,
            prefix: &self.prefix,
            key: &self.key,
            stream: HOSTED_CID,
            scratch: &mut self.scratch,
            backlogs: &self.backlogs,
        };
        self.core.handle(lent, now, event, rng);
    }
    fn loop_back(&mut self, now: SimTime, channel: usize, frame: &[u8], rng: &mut StdRng) {
        let Ok(DemuxFrame::Cid { inner, .. }) = wire::demux_frame(frame) else {
            panic!("a hosted frame starts with the host's prefix");
        };
        let lent = &mut Lent {
            pool: &mut self.pool,
            partials: &mut self.partials,
            prefix: &self.prefix,
            key: &self.key,
            stream: HOSTED_CID,
            scratch: &mut self.scratch,
            backlogs: &self.backlogs,
        };
        let _ = self
            .core
            .handle_frame(lent, now, channel, Endpoint::B, inner, rng);
    }
    fn poll_action(&mut self) -> Option<Action> {
        self.core.poll_action()
    }
    fn share_send_ok(&mut self, channel: usize) {
        self.core.share_send_ok(channel);
    }
    fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }
    fn delivered(&self, window: SimTime) -> u64 {
        self.core.report(window).delivered_symbols
    }
}

/// The sans-I/O engine in [`SourceMode::External`] — the configuration
/// the UDP driver and the server shards run — is also allocation-free
/// in steady state for whichever codec the session selects and
/// whichever [`Host`] owns the buffers: the action queue, pool, and
/// reassembly scratch all reach their high-water capacity during
/// warmup, and offering symbols, draining `SendShare` actions, looping
/// frames back to host B, and taking `DeliverSymbol` reconstructions
/// allocate nothing after that. Time moves: the driver keeps the
/// engine's timers on a timer wheel, as the UDP driver and the server
/// shards do, polls it every round, and the measured window spans five
/// rollovers of the wheel level that turns every 1.07 s — the
/// demand-armed sweep timer is set and fires throughout, and the wheel
/// hands the storage of drained buckets to the ones the cursor reaches.
fn engine_external_phase<H: Host>(codec: CodecId, engine: H) {
    use mcss_base::SimTime as T;

    /// The engine, its RNG and clock, and the wheel its timers wait on.
    struct Driver<H> {
        engine: H,
        rng: StdRng,
        now: T,
        timers: EventQueue<u64>,
        timer_seq: u64,
        fired: u64,
    }

    impl<H: Host> Driver<H> {
        /// Loops every share straight back to host B and recycles all
        /// buffers, exactly as a loopback driver would.
        fn pump(&mut self) {
            while let Some(action) = self.engine.poll_action() {
                match action {
                    Action::SendShare { channel, frame, .. } => {
                        self.engine.share_send_ok(channel);
                        self.engine
                            .loop_back(self.now, channel, &frame, &mut self.rng);
                        self.engine.recycle(frame);
                    }
                    Action::SendControl { frame, .. } => self.engine.recycle(frame),
                    Action::SetTimer { token, at } => {
                        self.timer_seq += 1;
                        self.timers.push(at, self.timer_seq, token);
                    }
                    Action::DeliverSymbol { payload, .. } => self.engine.recycle(payload),
                }
            }
        }

        /// One round, 100 µs on: fire what is due, offer one symbol.
        fn step(&mut self, payload: &[u8]) {
            self.now += T::from_micros(100);
            while matches!(self.timers.next_at(), Some(at) if at <= self.now) {
                let (_, _, token) = self.timers.pop().expect("peeked entry exists");
                self.fired += 1;
                self.engine
                    .handle(self.now, Event::TimerFired { token }, &mut self.rng);
                self.pump();
            }
            self.engine
                .handle(self.now, Event::SymbolReady { payload }, &mut self.rng);
            self.pump();
        }
    }

    let mut d = Driver {
        engine,
        rng: StdRng::seed_from_u64(13),
        now: T::ZERO,
        timers: EventQueue::new(QueueKind::Wheel),
        timer_seq: 0,
        fired: 0,
    };
    let payload = vec![0x5au8; 512];
    d.engine.handle(d.now, Event::Started, &mut d.rng);
    d.pump();

    // 1.5 s of warmup (past the first 1.07 s rollover), 5.5 s measured.
    for _ in 0..15_000 {
        d.step(&payload);
    }
    let (before, fired_before) = (allocations(), d.fired);
    for _ in 0..55_000 {
        d.step(&payload);
    }
    let during = allocations() - before;
    let host = H::NAME;
    assert_eq!(d.engine.delivered(d.now), 70_000, "loopback lost symbols");
    assert!(
        d.fired - fired_before > 100,
        "[{codec}, {host}] the sweep timer hardly ran in the measured window"
    );
    assert_eq!(
        during, 0,
        "external-source engine [{codec}, {host}]: {during} allocations in steady state"
    );
}

/// One steady-state window per case. Clean channels run every
/// `k ≤ m ≤ 8`; the Lossy case shows that loss costs no allocation
/// either.
fn session_phase() {
    // 8 clean channels so every (k, m) with m ≤ 8 is schedulable.
    let clean = setups::identical_n(8, 10.0);
    // (channels, κ, μ, offered share of R_C, fewest shares the measured
    // window must lose).
    let mut cases: Vec<(&ChannelSet, f64, f64, f64, u64)> = Vec::new();
    for m in 1..=8u8 {
        for k in 1..=m {
            // Integer (κ, μ) = (k, m) makes every draw exactly (k, m).
            cases.push((&clean, f64::from(k), f64::from(m), 0.3, 0));
        }
    }
    // The paper's Lossy setup (0.5–3 % loss per link): a share the link
    // loses hands its buffer back to the session's pool
    // (`Context::take_lost`), and the partial symbols it leaves behind
    // time out of a table already at its high-water mark.
    let lossy = setups::lossy();
    cases.push((&lossy, 2.0, 3.0, 0.8, 50));
    // The warmup must outlast every slow-converging high-water mark:
    // the resolved map's occupancy peaks only once the source period has
    // drifted through all phases of the 5 ms sweep timer.
    let warmup = SimTime::from_millis(700);
    let measure = SimTime::from_millis(300);
    let lost = |sim: &Simulator<Session>| -> u64 {
        let links = sim.network().channels();
        links.map(|c| c.forward().stats().lost_frames).sum()
    };
    for (channels, kappa, mu, load, min_lost) in cases {
        let config = Arc::new(
            ProtocolConfig::new(kappa, mu)
                .unwrap()
                // Short timeout so the resolved map's pruning horizon
                // (2× timeout) is well inside the warmup window.
                .with_reassembly_timeout(SimTime::from_millis(20)),
        );
        let rate = load * testbed::optimal_symbol_rate(channels, &config).unwrap();
        let workload = Workload::cbr(rate, warmup + measure + SimTime::from_millis(100));
        let net = testbed::network_for(channels, &config);
        let session = Session::new(Arc::clone(&config), channels.len(), workload).unwrap();
        let mut sim = Simulator::with_queue_kind(net, session, 42, QueueKind::Heap);
        sim.run_until(warmup);
        let (before, lost_before) = (allocations(), lost(&sim));
        sim.run_until(warmup + measure);
        let during = allocations() - before;
        let lost_during = lost(&sim) - lost_before;
        let report = sim.app().report(warmup + measure);
        assert!(
            report.delivered_symbols > 100,
            "(κ={kappa}, μ={mu}) too few symbols delivered: {}",
            report.delivered_symbols
        );
        assert!(
            lost_during >= min_lost,
            "(κ={kappa}, μ={mu}) only {lost_during} shares lost in the measured window"
        );
        assert_eq!(
            during, 0,
            "(κ={kappa}, μ={mu}): {during} allocations in steady state \
             over {} delivered symbols and {lost_during} lost shares",
            report.delivered_symbols
        );
    }
}
