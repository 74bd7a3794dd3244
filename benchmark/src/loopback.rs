//! `loop_fleet`: the sharded [`UdpServer`] over loopback sockets at a
//! fixed offered rate. Traffic crosses the host's loopback interface,
//! not a link.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcss_base::SimTime;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::Workload;
use mcss_remicss::wire::CID_PREFIX_BYTES;
use mcss_server::{IoMode, PhasedSummary, RunPhases, ServerConfig, UdpServer};

use crate::alloc;
use crate::input::mix;
use crate::memloop::{CHANNELS, SHARDS};
use crate::stats::{process_cpu_ns, CpuTime};

/// Aggregate offered rate, symbols per second. Open loop: the paced
/// sources tick on schedule whether or not the server keeps up. Fixed
/// well below the knee because only there does cost per symbol repeat;
/// saturated throughput on this kind of host does not.
pub const OFFERED_PER_S: u64 = 60_000;
pub const SESSIONS: u32 = 10_000;
const SYMBOL_BYTES: usize = 64;
const WARMUP: Duration = Duration::from_secs(1);
/// Tail after the sources stop, for what they sent last to land: the
/// sources stop when the measured phase ends, so a symbol that is still
/// missing after the drain was lost, not in flight.
const DRAIN: Duration = Duration::from_millis(500);

pub fn protocol() -> Arc<ProtocolConfig> {
    Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .expect("valid (kappa, mu)")
            .with_symbol_bytes(SYMBOL_BYTES),
    )
}

/// Binds the sockets and registers the fleet, each source's first tick
/// staggered across one period so the fleet does not burst in phase.
/// The sources send through the warm-up and `measure`, then stop.
pub fn set_up(
    seed: u64,
    io: IoMode,
    offered_per_s: f64,
    measure: Duration,
) -> io::Result<UdpServer> {
    let mut config = ServerConfig::with_shards(SHARDS);
    config.io = io;
    let mut server = UdpServer::new(config, protocol(), CHANNELS)?;
    let per_session = offered_per_s / f64::from(SESSIONS);
    let period = 1.0 / per_session;
    let sending = SimTime::from_nanos((WARMUP + measure).as_nanos() as u64);
    for cid in 0..SESSIONS {
        let phase = SimTime::from_secs_f64(period * f64::from(cid) / f64::from(SESSIONS));
        let workload = Workload::cbr(per_session, sending).with_phase(phase);
        server.add_session(cid, workload, mix(seed, 0x4c4f_4f50, u64::from(cid)))?;
    }
    Ok(server)
}

/// Length of one reading inside the measured phase: long against the
/// shards' wakeup period, short enough that a run yields thirty.
const SUB_WINDOW: Duration = Duration::from_millis(500);

/// One run of the server: warm-up, measured phase, drain.
#[derive(Debug)]
pub struct LoopRun {
    pub phased: PhasedSummary,
    /// Wall nanoseconds per reconstructed symbol, one reading per
    /// sub-window: the reciprocal of the achieved rate, which leaves
    /// the offered rate only while the server is behind or catching up.
    pub window_ns: Vec<f64>,
    /// Process CPU microseconds per reconstructed symbol, per
    /// sub-window.
    pub window_cpu_us: Vec<f64>,
    /// Process CPU, split into user and system (10 ms ticks), and
    /// reconstructed symbols over all sub-windows.
    pub cpu: CpuTime,
    pub symbols: u64,
    /// Symbols reconstructed over the whole run, the drain included
    /// (`phased.run.delivered_symbols` stops counting with the sources).
    pub delivered: u64,
    /// How long the sources sent: warm-up and measured phase.
    pub sending: Duration,
    /// Live heap bytes when the warm-up ended.
    pub live_bytes: u64,
    /// `corrupted_symbols + wire_errors` over every session report.
    pub flagged: u64,
    /// Mean one-way delay over every delivered symbol, microseconds.
    pub mean_delay_us: f64,
}

impl LoopRun {
    /// Reconstructed over sent, whole run (the drain lets what was in
    /// flight when the sources stopped land).
    pub fn delivered_ratio(&self) -> f64 {
        self.delivered as f64 / self.phased.run.sent_symbols.max(1) as f64
    }

    /// Symbols sent and never reconstructed.
    pub fn lost(&self) -> u64 {
        self.phased.run.sent_symbols.saturating_sub(self.delivered)
    }

    /// Symbols the paced sources sent over symbols their schedule
    /// called for: below 1, the generator itself ran late.
    pub fn sent_vs_scheduled(&self, offered_per_s: f64) -> f64 {
        self.phased.run.sent_symbols as f64 / (offered_per_s * self.sending.as_secs_f64())
    }

    /// Datagram bytes the server put on the sockets per symbol sent:
    /// every share is one datagram of demux prefix, header and payload.
    pub fn wire_bytes_per_symbol(&self) -> f64 {
        let datagram = CID_PREFIX_BYTES + protocol().share_wire_bytes();
        (self.phased.run.shares_sent as usize * datagram) as f64
            / self.phased.run.sent_symbols.max(1) as f64
    }
}

/// Runs `server` for `measure` between the fixed warm-up and drain. The
/// shard threads generate the load; a sampler thread reads process CPU,
/// the shards' delivery counters and the live heap at sub-window edges
/// while this thread sits in `run_phases`.
pub fn run(server: &mut UdpServer, measure: Duration) -> io::Result<LoopRun> {
    let phases = RunPhases {
        warmup: WARMUP,
        measure,
        drain: DRAIN,
    };
    let stats: Vec<_> = (0..SHARDS)
        .map(|i| Arc::clone(server.shards().shard(i).stats()))
        .collect();
    let (phased, (edges, live_bytes, cpu)) = std::thread::scope(|scope| {
        let stats = &stats;
        let sampler = scope.spawn(move || {
            let read = || {
                let delivered: u64 = stats.iter().map(|s| s.get().symbols_delivered).sum();
                (Instant::now(), process_cpu_ns(), delivered)
            };
            let begun = Instant::now();
            std::thread::sleep(WARMUP);
            let live = alloc::live_bytes();
            let split = CpuTime::now();
            let mut edges = vec![read()];
            let windows = (measure.as_secs_f64() / SUB_WINDOW.as_secs_f64())
                .ceil()
                .max(1.0);
            let step = measure.div_f64(windows);
            for i in 1..=windows as u32 {
                // Sleep to the edge's own deadline so readings do not
                // drift by the time each one takes.
                let due = WARMUP + step * i;
                std::thread::sleep(due.saturating_sub(begun.elapsed()));
                edges.push(read());
            }
            (edges, live, CpuTime::now().since(split))
        });
        let phased = server.run_phases(phases);
        (phased, sampler.join().expect("sampler thread panicked"))
    });
    let phased = phased?;
    let mut window_ns = Vec::new();
    let mut window_cpu_us = Vec::new();
    for pair in edges.windows(2) {
        let ((t0, c0, d0), (t1, c1, d1)) = (pair[0], pair[1]);
        let symbols = (d1 - d0).max(1) as f64;
        window_ns.push((t1 - t0).as_nanos() as f64 / symbols);
        window_cpu_us.push((c1 - c0) as f64 / 1e3 / symbols);
    }
    let (first, last) = (edges[0], edges[edges.len() - 1]);
    let mut flagged = 0;
    let mut delay_ns = 0.0;
    let mut delivered = 0u64;
    let window = SimTime::from_nanos(phased.run.elapsed.as_nanos() as u64);
    for (_, report) in server.session_reports(window) {
        flagged += report.corrupted_symbols + report.wire_errors;
        if let Some(delay) = report.mean_one_way_delay {
            delay_ns += delay.as_nanos() as f64 * report.delivered_symbols as f64;
            delivered += report.delivered_symbols;
        }
    }
    Ok(LoopRun {
        phased,
        window_ns,
        window_cpu_us,
        cpu,
        symbols: last.2 - first.2,
        delivered: server.shards().totals().symbols_delivered,
        sending: WARMUP + measure,
        live_bytes,
        flagged,
        mean_delay_us: delay_ns / delivered.max(1) as f64 / 1e3,
    })
}
