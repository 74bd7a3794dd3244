//! The three in-memory workloads and the window discipline they share.

use std::time::Instant;

use mcss_base::SimTime;
use mcss_codec::CodecId;

use crate::alloc;
use crate::memloop::{Counters, Driver, MemSpec, ShardStack, Stack};
use crate::report::Workload;
use crate::stats::{process_cpu_ns, CpuRotation};
use crate::trace::Probe;

/// Kernel, codec and copies carry the symbol: few sessions, big symbols.
fn bulk() -> MemSpec {
    MemSpec {
        sessions: 256,
        kappa: 3.0,
        mu: 5.0,
        symbol_bytes: 1250,
        codec: CodecId::Shamir,
        burst: 1,
        step_ns: 10_000,
        timeout: SimTime::from_millis(500),
        drop: 0.0,
        dup: 0.0,
        detour: 0.0,
        depth: 0,
        // One sweep period of simulated time (125 ms at 10 us a
        // symbol): every window holds exactly one batch of sweep
        // timers per shard.
        window_symbols: 12_500,
    }
}

/// Per-symbol fixed cost and per-session state carry the symbol: the
/// protocol configuration, fleet size and (through `step_ns`) sweep
/// timers per symbol of `loop_fleet`, without its sockets.
pub fn fleet() -> MemSpec {
    MemSpec {
        sessions: 10_000,
        kappa: 2.0,
        mu: 3.0,
        symbol_bytes: 64,
        codec: CodecId::Shamir,
        burst: 1,
        step_ns: 1_000_000_000 / crate::loopback::OFFERED_PER_S,
        timeout: SimTime::from_millis(500),
        drop: 0.0,
        dup: 0.0,
        detour: 0.0,
        depth: 0,
        // One sweep period (125 ms at 60 000 symbols a second).
        window_symbols: 7_500,
    }
}

/// The paths the clean workloads never take: partial symbols, timeout
/// eviction, duplicate and stale shares, fractional draws, the other
/// codec, and every datagram's even chance of arriving at the wrong
/// shard.
fn hostile() -> MemSpec {
    MemSpec {
        sessions: 1_000,
        kappa: 2.5,
        mu: 4.2,
        symbol_bytes: 1250,
        codec: CodecId::Xor2d,
        burst: 4,
        step_ns: 10_000,
        // Short, so evictions start within the warm-up; still three
        // orders of magnitude above the channel's own delay.
        timeout: SimTime::from_millis(20),
        drop: 0.15,
        dup: 0.05,
        detour: 0.5,
        // About eight symbols' worth of datagrams.
        depth: 32,
        // Four sweep periods (5 ms each at 10 us a symbol).
        window_symbols: 2_000,
    }
}

/// The in-memory workload's specification, if `workload` is one.
pub fn spec_of(workload: Workload) -> Option<MemSpec> {
    match workload {
        Workload::MemBulk => Some(bulk()),
        Workload::MemFleet => Some(fleet()),
        Workload::MemHostile => Some(hostile()),
        Workload::LoopFleet | Workload::SimSession => None,
    }
}

/// One timed phase of the loop.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall nanoseconds per reconstructed symbol, one reading per
    /// fixed-work window.
    pub window_ns: Vec<f64>,
    /// Process CPU microseconds per reconstructed symbol, per window.
    pub window_cpu_us: Vec<f64>,
    pub allocs: u64,
    pub counters: Counters,
}

impl Phase {
    pub fn delivered_ratio(&self) -> f64 {
        self.counters.delivered as f64 / self.counters.finalized.max(1) as f64
    }

    pub fn allocs_per_symbol(&self) -> f64 {
        self.allocs as f64 / self.counters.offered.max(1) as f64
    }

    pub fn wire_bytes_per_symbol(&self) -> f64 {
        self.counters.wire_bytes as f64 / self.counters.offered.max(1) as f64
    }
}

/// Simulated time the loop runs before anything is measured: past the
/// point where the reassembly tables' resolution records (kept two
/// timeouts), the pools, and the three timer-wheel levels the sweep
/// timers live in have reached their steady size. The shard timer wheel
/// itself is never done: its cursor reaches a bucket it has not used
/// yet every 1.07 s of simulated time for the first 69 s (level 3) and
/// that bucket's `Vec` then grows to the timers it holds, so waiting
/// for an allocation-free window would make the warm-up a matter of
/// luck. A fixed span makes every run start measuring from the same
/// state; `alloc.allocs_per_symbol` reports what still allocates.
const WARMUP_SIM_NS: u64 = 2_500_000_000;

/// Runs the fixed warm-up and returns the allocations of its last
/// window.
pub fn warm_up<S: Stack, P: Probe>(
    driver: &mut Driver,
    stack: &mut S,
    spec: &MemSpec,
    probe: &mut P,
) -> u64 {
    let windows = WARMUP_SIM_NS.div_ceil(spec.window_symbols * spec.step_ns);
    let mut last = 0;
    for _ in 0..windows {
        let before = alloc::allocs();
        driver.run(stack, spec.window_symbols, probe);
        last = alloc::allocs() - before;
    }
    last
}

/// Runs fixed-work windows for `seconds` (at least `min_windows`).
pub fn measure<S: Stack, P: Probe>(
    driver: &mut Driver,
    stack: &mut S,
    window_symbols: u64,
    seconds: f64,
    min_windows: usize,
    probe: &mut P,
) -> Phase {
    let mut phase = Phase::default();
    let counters = driver.counters;
    let allocs = alloc::allocs();
    let mut rotation = CpuRotation::start();
    let start = Instant::now();
    while phase.window_ns.len() < min_windows || start.elapsed().as_secs_f64() < seconds {
        rotation.advance();
        let delivered = driver.counters.delivered;
        let (t, cpu) = (Instant::now(), process_cpu_ns());
        driver.run(stack, window_symbols, probe);
        let (ns, cpu) = (t.elapsed().as_nanos() as f64, process_cpu_ns() - cpu);
        let delivered = (driver.counters.delivered - delivered).max(1) as f64;
        phase.window_ns.push(ns / delivered);
        phase.window_cpu_us.push(cpu as f64 / 1e3 / delivered);
    }
    phase.allocs = alloc::allocs() - allocs;
    phase.counters = driver.counters.since(&counters);
    phase
}

/// Builds the workload proper; the time this takes is its `setup_s`.
pub fn set_up(spec: &MemSpec, seed: u64) -> (ShardStack, Driver) {
    (ShardStack::new(spec, seed), Driver::new(spec, seed))
}
