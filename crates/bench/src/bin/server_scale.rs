//! Server scaling benchmark: one sharded [`UdpServer`] multiplexing an
//! increasing number of concurrent sessions over loopback sockets,
//! measuring aggregate reconstructed-symbol throughput and the cost of
//! the demux/handoff machinery as the session count grows four orders
//! of magnitude — under **each** I/O backend the host supports, so the
//! readiness-driven epoll loop and the portable busy-poll loop are
//! directly comparable per point.
//!
//! Each point registers `sessions` CBR sources behind one server
//! (shard count capped at the host's parallelism) and runs three
//! wall-clock phases: a warmup (excluded — session start, pool warm-up
//! and reuseport calibration settle), the measured window proper
//! (counter deltas sampled at its exact edges), and a drain tail so
//! in-flight datagrams land before the threads exit. The per-session
//! offered rate shrinks as the fleet grows so the aggregate offered
//! load stays within what loopback sockets sustain — the point of the
//! sweep is multiplexing scale, not socket saturation. Each point
//! reports `offered_vs_delivered` (delivered ÷ offered over the
//! window; 1.0 = the server kept up), the syscall-amortization
//! counters (`wakeups`, `syscalls_recv`, `syscalls_send`,
//! `datagrams_per_syscall`) and the train counters (`messages_sent`,
//! `messages_received`, `datagrams_per_message`: the mean number of
//! datagrams a kernel message carried — above 1 where the epoll
//! backend's GSO/GRO trains form, exactly 1 on busy-poll).
//!
//! Human-readable table on stdout; `BENCH_server_scale.json` with the
//! full point series (the binary enables emission itself, like every
//! figure binary). Environment knobs:
//!
//! * `MCSS_SERVER_SCALE`: session counts — default 10/100/1k/10k,
//!   `smoke` = 10/100/1k (the CI smoke job), `full` = default + 100k.
//! * `MCSS_SERVER_IO`: when set, only that backend is swept (the CI
//!   forced-backend matrix); otherwise every available backend runs.
//! * `MCSS_SERVER_SCALE_ASSERT=1`: exit nonzero unless each swept
//!   backend's 1k-session `delivered_per_sec` is within 25% of its
//!   100-session point (the CI scaling regression gate).
//! * `MCSS_SERVER_KNEE=0`: skip the per-point offered-load escalation
//!   (it is also skipped in `smoke` mode, which feeds the CI gate and
//!   only needs the base-load points).
//!
//! After each base-load point, the offered load is escalated in ×2
//! steps (up to ×[`KNEE_MAX_MULTIPLIER`]) until `offered_vs_delivered`
//! drops below [`KNEE_THRESHOLD`] — the *knee*, the offered load at
//! which the server stops keeping up. The `knee` section of the JSON
//! records every escalation level plus the highest sustained load per
//! (backend, sessions) point, so throughput headroom is measured
//! rather than inferred from the fixed base load.

use std::sync::Arc;
use std::time::Duration;

use mcss::netsim::SimTime;
use mcss::remicss::config::ProtocolConfig;
use mcss::remicss::engine::Workload;
use mcss::server::{IoBackend, IoMode, RunPhases, ServerConfig, UdpServer};
use serde::Serialize;

/// Aggregate offered symbol rate across all sessions, symbols/sec.
/// Split evenly per session (floored at 2/s so small fleets still show
/// per-session pacing and huge fleets still make progress per window).
const AGGREGATE_OFFERED: f64 = 20_000.0;
/// Ramp-up excluded from measurement.
const WARMUP: Duration = Duration::from_millis(200);
/// Wall-clock measurement window per point.
const WINDOW: Duration = Duration::from_millis(500);
/// Post-window tail so in-flight datagrams land before shutdown.
const DRAIN: Duration = Duration::from_millis(150);
const SYMBOL_BYTES: usize = 64;
const CHANNELS: usize = 5;
/// `offered_vs_delivered` below this marks the knee: the server no
/// longer keeps up with the offered load.
const KNEE_THRESHOLD: f64 = 0.9;
/// Escalation cap: the sweep stops at ×16 the base offered load even
/// if the server still keeps up (loopback sockets bound what a higher
/// load would measure).
const KNEE_MAX_MULTIPLIER: f64 = 16.0;

#[derive(Serialize)]
struct ScalePoint {
    sessions: usize,
    shards: usize,
    io_backend: &'static str,
    offered_per_session: f64,
    offered_aggregate: f64,
    /// Whole-run wall clock (warmup + window + drain).
    wall_millis: f64,
    /// Measured window wall clock (counter-delta basis).
    window_millis: f64,
    /// Whole-run totals (context; includes warmup and drain).
    sent_symbols: u64,
    /// Window-scoped counters: the comparable numbers.
    delivered_symbols: u64,
    delivered_per_sec: f64,
    /// Delivered ÷ offered over the window; 1.0 = the server kept up
    /// with the offered load, below 1.0 = the knee.
    offered_vs_delivered: f64,
    datagrams_received: u64,
    datagrams_sent: u64,
    wakeups: u64,
    syscalls_recv: u64,
    syscalls_send: u64,
    datagrams_per_syscall: f64,
    messages_sent: u64,
    messages_received: u64,
    /// Mean train length: datagrams per kernel message, both directions.
    datagrams_per_message: f64,
    handoffs: u64,
    handoff_rejected: u64,
    send_drops: u64,
}

/// One escalation level of a knee sweep.
#[derive(Serialize)]
struct KneeLevel {
    offered_aggregate: f64,
    delivered_per_sec: f64,
    offered_vs_delivered: f64,
}

/// The offered-load knee for one (backend, sessions) point.
#[derive(Serialize)]
struct KneePoint {
    io_backend: &'static str,
    sessions: usize,
    /// Highest offered load (sym/s) the server sustained with
    /// `offered_vs_delivered ≥ KNEE_THRESHOLD`.
    sustained_offered: f64,
    /// First offered load where the ratio dropped below the threshold
    /// — the knee. `null` when the escalation cap was reached with the
    /// server still keeping up.
    knee_offered: Option<f64>,
    /// The ratio measured at the knee (`null` when no knee was found).
    knee_offered_vs_delivered: Option<f64>,
    /// Best delivered rate observed across all levels.
    peak_delivered_per_sec: f64,
    /// Every escalation level measured, in offered-load order.
    levels: Vec<KneeLevel>,
}

#[derive(Serialize)]
struct ScaleReport {
    id: String,
    aggregate_offered: f64,
    warmup_millis: f64,
    window_millis: f64,
    drain_millis: f64,
    knee_threshold: f64,
    points: Vec<ScalePoint>,
    knee: Vec<KneePoint>,
}

fn shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .clamp(2, 8)
}

fn run_point(
    sessions: usize,
    shards: usize,
    backend: IoBackend,
    aggregate_offered: f64,
) -> ScalePoint {
    let protocol = Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .expect("valid config")
            .with_symbol_bytes(SYMBOL_BYTES),
    );
    let mut config = ServerConfig::with_shards(shards);
    config.io = match backend {
        IoBackend::Busypoll => IoMode::Busypoll,
        IoBackend::Epoll => IoMode::Epoll,
    };
    let mut server = UdpServer::new(config, protocol, CHANNELS).expect("loopback sockets bind");
    let offered_per_session = (aggregate_offered / sessions as f64).max(2.0);
    let offered_aggregate = offered_per_session * sessions as f64;
    let period = 1.0 / offered_per_session;
    for cid in 0..sessions as u32 {
        // Stagger each source's phase across one period: phase-locked
        // fleets tick at the same absolute instants and the resulting
        // bursts overflow receive buffers at a small fraction of the
        // sustainable mean rate.
        let phase = SimTime::from_secs_f64(period * cid as f64 / sessions as f64);
        let workload =
            Workload::cbr(offered_per_session, SimTime::from_secs(3_600)).with_phase(phase);
        server
            .add_session(cid, workload, 1 + u64::from(cid))
            .expect("session registers");
    }
    let phased = server
        .run_phases(RunPhases {
            warmup: WARMUP,
            measure: WINDOW,
            drain: DRAIN,
        })
        .expect("run completes");
    let window = phased.window;
    let totals = server.shards().totals();
    ScalePoint {
        sessions,
        shards,
        io_backend: backend.name(),
        offered_per_session,
        offered_aggregate,
        wall_millis: phased.run.elapsed.as_secs_f64() * 1e3,
        window_millis: window.window.as_secs_f64() * 1e3,
        sent_symbols: phased.run.sent_symbols,
        delivered_symbols: window.delivered_symbols,
        delivered_per_sec: window.delivered_per_sec(),
        offered_vs_delivered: window.delivered_per_sec() / offered_aggregate,
        datagrams_received: window.datagrams_received,
        datagrams_sent: window.datagrams_sent,
        wakeups: window.wakeups,
        syscalls_recv: window.syscalls_recv,
        syscalls_send: window.syscalls_send,
        datagrams_per_syscall: window.datagrams_per_syscall(),
        messages_sent: window.messages_sent,
        messages_received: window.messages_received,
        datagrams_per_message: window.datagrams_per_message(),
        handoffs: window.handoffs,
        handoff_rejected: totals.handoff_rejected,
        send_drops: window.send_drops,
    }
}

fn session_counts() -> Vec<usize> {
    match std::env::var("MCSS_SERVER_SCALE").as_deref() {
        Ok("smoke") => vec![10, 100, 1_000],
        Ok("full") => vec![10, 100, 1_000, 10_000, 100_000],
        _ => vec![10, 100, 1_000, 10_000],
    }
}

/// Backends to sweep: the forced one when `MCSS_SERVER_IO` is set (the
/// CI matrix leg), every available backend otherwise.
fn backends() -> Vec<IoBackend> {
    if std::env::var("MCSS_SERVER_IO").is_ok() {
        vec![IoMode::Auto.resolve().expect("MCSS_SERVER_IO resolves")]
    } else {
        IoBackend::available().to_vec()
    }
}

/// Whether to escalate offered load per point. Off in smoke mode (the
/// CI gate only needs base-load points) and under `MCSS_SERVER_KNEE=0`.
fn knee_enabled() -> bool {
    std::env::var("MCSS_SERVER_SCALE").as_deref() != Ok("smoke")
        && std::env::var("MCSS_SERVER_KNEE").as_deref() != Ok("0")
}

/// Escalates the offered load for one (backend, sessions) point in ×2
/// steps from the already-measured base point until the server stops
/// keeping up ([`KNEE_THRESHOLD`]) or the cap is hit, and summarizes
/// the knee.
fn knee_sweep(base: &ScalePoint, shards: usize, backend: IoBackend) -> KneePoint {
    let level = |p: &ScalePoint| KneeLevel {
        offered_aggregate: p.offered_aggregate,
        delivered_per_sec: p.delivered_per_sec,
        offered_vs_delivered: p.offered_vs_delivered,
    };
    let mut levels = vec![level(base)];
    let mut mult = 2.0;
    while levels.last().unwrap().offered_vs_delivered >= KNEE_THRESHOLD
        && mult <= KNEE_MAX_MULTIPLIER
    {
        // Escalate from the base point's *actual* offered aggregate —
        // run_point floors the per-session rate at 2/s, so for large
        // fleets the base load exceeds AGGREGATE_OFFERED and scaling
        // the global constant would produce levels below the base.
        let p = run_point(
            base.sessions,
            shards,
            backend,
            base.offered_aggregate * mult,
        );
        println!(
            "{:>8} {:>7} sessions @ {:>7.0} sym/s offered: {:>8.0} delivered ({:>5.1}%)",
            p.io_backend,
            p.sessions,
            p.offered_aggregate,
            p.delivered_per_sec,
            p.offered_vs_delivered * 100.0
        );
        levels.push(level(&p));
        mult *= 2.0;
    }
    let sustained_offered = levels
        .iter()
        .filter(|l| l.offered_vs_delivered >= KNEE_THRESHOLD)
        .map(|l| l.offered_aggregate)
        .fold(0.0, f64::max);
    let knee = levels
        .iter()
        .find(|l| l.offered_vs_delivered < KNEE_THRESHOLD);
    let peak_delivered_per_sec = levels
        .iter()
        .map(|l| l.delivered_per_sec)
        .fold(0.0, f64::max);
    KneePoint {
        io_backend: base.io_backend,
        sessions: base.sessions,
        sustained_offered,
        knee_offered: knee.map(|l| l.offered_aggregate),
        knee_offered_vs_delivered: knee.map(|l| l.offered_vs_delivered),
        peak_delivered_per_sec,
        levels,
    }
}

/// The CI scaling gate: 1k-session throughput within `tolerance` of
/// the 100-session point, per backend. Returns the failures.
fn scaling_regressions(points: &[ScalePoint], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for backend in points
        .iter()
        .map(|p| p.io_backend)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let at = |sessions: usize| {
            points
                .iter()
                .find(|p| p.io_backend == backend && p.sessions == sessions)
                .map(|p| p.delivered_per_sec)
        };
        let (Some(base), Some(scaled)) = (at(100), at(1_000)) else {
            continue;
        };
        if (scaled - base).abs() > tolerance * base {
            failures.push(format!(
                "{backend}: 1k-session {scaled:.0} sym/s deviates more than \
                 {:.0}% from the 100-session {base:.0} sym/s",
                tolerance * 100.0
            ));
        }
    }
    failures
}

fn main() {
    mcss_bench::report::enable_emission();
    let shards = shard_count();
    println!(
        "server scaling: {shards} shards, {CHANNELS} channels, \
         {AGGREGATE_OFFERED:.0} sym/s aggregate offered, \
         {:.0} ms warmup + {:.0} ms window + {:.0} ms drain\n",
        WARMUP.as_secs_f64() * 1e3,
        WINDOW.as_secs_f64() * 1e3,
        DRAIN.as_secs_f64() * 1e3
    );
    let mut points = Vec::new();
    let mut knee = Vec::new();
    for backend in backends() {
        for sessions in session_counts() {
            let p = run_point(sessions, shards, backend, AGGREGATE_OFFERED);
            println!(
                "{:>8} {:>7} sessions: {:>8.0} sym/s delivered ({:>5.1}% of offered)  \
                 {:>8} datagrams  {:>5.1} dg/syscall  {:>4.1} dg/message  {:>6} wakeups  \
                 {:>7} handoffs  {:>5} send drops",
                p.io_backend,
                p.sessions,
                p.delivered_per_sec,
                p.offered_vs_delivered * 100.0,
                p.datagrams_received,
                p.datagrams_per_syscall,
                p.datagrams_per_message,
                p.wakeups,
                p.handoffs,
                p.send_drops
            );
            if knee_enabled() {
                let k = knee_sweep(&p, shards, backend);
                println!(
                    "{:>8} {:>7} sessions: knee {} (sustained {:.0} sym/s, peak {:.0} sym/s)",
                    k.io_backend,
                    k.sessions,
                    k.knee_offered
                        .map_or("not reached at cap".to_string(), |o| format!(
                            "at {o:.0} sym/s offered"
                        )),
                    k.sustained_offered,
                    k.peak_delivered_per_sec
                );
                knee.push(k);
            }
            points.push(p);
        }
    }
    let failures = scaling_regressions(&points, 0.25);
    let report = ScaleReport {
        id: "server_scale".to_string(),
        aggregate_offered: AGGREGATE_OFFERED,
        warmup_millis: WARMUP.as_secs_f64() * 1e3,
        window_millis: WINDOW.as_secs_f64() * 1e3,
        drain_millis: DRAIN.as_secs_f64() * 1e3,
        knee_threshold: KNEE_THRESHOLD,
        points,
        knee,
    };
    mcss_bench::report::emit_value(&report.id, &report);
    if std::env::var("MCSS_SERVER_SCALE_ASSERT").as_deref() == Ok("1") && !failures.is_empty() {
        for f in &failures {
            eprintln!("scaling regression: {f}");
        }
        std::process::exit(1);
    }
}
