//! The untraced run: end-to-end metrics and output checks, one
//! workload at a time.

use std::time::{Duration, Instant};

use mcss_server::IoMode;

use crate::alloc;
use crate::loopback;
use crate::mem;
use crate::memloop::MemSpec;
use crate::report::{Metric, Outcome, Workload};
use crate::simsession;
use crate::stats::CpuRotation;
use crate::trace::Off;

/// Fewest timed windows in a phase, however short `--seconds` is.
pub const MIN_WINDOWS: usize = 6;

/// A workload built and ready, and what building it cost.
pub struct Setup<T> {
    pub built: T,
    /// Seconds each build took.
    pub readings: Vec<f64>,
    /// Live heap bytes just before the first build: what the harness
    /// itself holds, to take off a later reading of the live heap.
    pub base_bytes: u64,
}

/// Builds a workload several times over, timing each build, and keeps
/// the last: `setup_s` is the fastest build, for the reason every
/// timing here is a fastest reading (see `Metric::fastest`), and so one
/// slow build (page faults on a cold heap, a slow `bind`) does not
/// decide it. The thread changes CPU between builds, as it does between
/// timed windows (see [`CpuRotation`]), but stays a while on each so
/// that a build of microseconds is not always the first on a cold cache.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> Setup<T> {
    const MIN_REPEATS: usize = 8;
    const MAX_REPEATS: usize = 1 << 16;
    const BUDGET_S: f64 = 1.5;
    const STAY: Duration = Duration::from_millis(25);
    let mut rotation = CpuRotation::start();
    // Allocated whole before the heap baseline is read.
    let mut readings = Vec::with_capacity(MAX_REPEATS);
    let base_bytes = alloc::live_bytes();
    let started = Instant::now();
    let mut moved: Option<Instant> = None;
    loop {
        if moved.is_none_or(|at| at.elapsed() >= STAY) {
            rotation.advance();
            moved = Some(Instant::now());
        }
        let t = Instant::now();
        let built = build();
        readings.push(t.elapsed().as_secs_f64());
        let spent = started.elapsed().as_secs_f64();
        if readings.len() == MAX_REPEATS || (readings.len() >= MIN_REPEATS && spent >= BUDGET_S) {
            return Setup {
                built,
                readings,
                base_bytes,
            };
        }
        drop(built);
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    match (workload, mem::spec_of(workload)) {
        (_, Some(spec)) => run_mem(&spec, seed, seconds),
        (Workload::SimSession, None) => run_sim(seed, seconds),
        (_, None) => run_loop(seed, seconds),
    }
}

fn run_mem(spec: &MemSpec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = timed_setups(|| mem::set_up(spec, seed));
    let (mut stack, mut driver) = setup.built;
    let warm_allocs = mem::warm_up(&mut driver, &mut stack, spec, &mut Off);
    let live = alloc::live_bytes() - setup.base_bytes;
    let phase = mem::measure(
        &mut driver,
        &mut stack,
        spec.window_symbols,
        seconds,
        MIN_WINDOWS,
        &mut Off,
    );
    driver.finish(&mut stack);

    let whole = driver.counters;
    out.check(whole.failed() == 0, || {
        format!("symbols with a wrong outcome over the whole run: {whole:?}")
    });
    out.check(whole.finalized == whole.offered, || {
        format!(
            "{} of {} symbols never settled",
            whole.offered - whole.finalized,
            whole.offered
        )
    });
    if spec.drop == 0.0 {
        out.check(phase.counters.delivered == phase.counters.finalized, || {
            format!(
                "lossless loop delivered {} of {}",
                phase.counters.delivered, phase.counters.finalized
            )
        });
    }
    let (reassembly, flagged) = stack.session_totals(spec.sessions);
    out.check(flagged == 0, || {
        format!("session reports flag {flagged} corrupted symbols or wire errors")
    });
    out.check(reassembly.completed == whole.delivered, || {
        format!(
            "reassembly completed {} symbols, harness collected {}",
            reassembly.completed, whole.delivered
        )
    });
    out.notes.push(format!(
        "{warm_allocs} allocations in the last warm-up window, {} in {} timed symbols; \
         generator: {} datagrams, {} dropped, {} duplicated, {} detoured",
        phase.allocs,
        phase.counters.offered,
        phase.counters.datagrams,
        phase.counters.dropped,
        phase.counters.duplicated,
        phase.counters.detoured
    ));

    out.attempted = phase.counters.finalized;
    out.failed = phase.counters.failed();
    out.push(Metric::fastest("setup_s", &setup.readings));
    out.push(Metric::fastest("ns_per_symbol", &phase.window_ns));
    out.push(Metric::fastest("cpu_us_per_symbol", &phase.window_cpu_us));
    out.push(Metric::exact("delivered_ratio", phase.delivered_ratio()));
    out.push(Metric::exact(
        "bytes_per_session",
        live as f64 / f64::from(spec.sessions),
    ));
    out.push(Metric::exact(
        "wire_bytes_per_symbol",
        phase.wire_bytes_per_symbol(),
    ));
    out.settle()
}

fn run_loop(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let offered = loopback::OFFERED_PER_S as f64;
    let measure = Duration::from_secs_f64(seconds);
    let setup = timed_setups(|| {
        loopback::set_up(seed, IoMode::Auto, offered, measure).expect("loopback sockets bind")
    });
    let mut server = setup.built;
    let run = loopback::run(&mut server, measure).expect("server run completes");

    out.check(run.flagged == 0, || {
        format!(
            "session reports flag {} corrupted symbols or wire errors",
            run.flagged
        )
    });
    out.check(run.delivered_ratio() >= 0.99, || {
        format!("delivered {:.4} of sent, below 0.99", run.delivered_ratio())
    });
    let lag = run.sent_vs_scheduled(offered);
    out.check(lag >= 0.99, || {
        format!("paced sources sent {lag:.4} of their schedule: the generator ran late")
    });
    out.notes.push(format!(
        "{} backend; sources sent {lag:.4} of schedule; window {} symbols in {:.3} s; \
         {} send drops",
        server.backend().name(),
        run.phased.window.delivered_symbols,
        run.phased.window.window.as_secs_f64(),
        run.phased.run.send_drops
    ));

    out.attempted = run.phased.run.sent_symbols;
    out.failed = run.lost();
    out.push(Metric::fastest("setup_s", &setup.readings));
    out.push(Metric::median("ns_per_symbol", &run.window_ns));
    out.push(Metric::fastest("cpu_us_per_symbol", &run.window_cpu_us));
    out.push(Metric::exact("delivered_ratio", run.delivered_ratio()));
    out.push(Metric::exact(
        "bytes_per_session",
        (run.live_bytes - setup.base_bytes) as f64 / f64::from(loopback::SESSIONS),
    ));
    out.push(Metric::exact(
        "wire_bytes_per_symbol",
        run.wire_bytes_per_symbol(),
    ));
    out.settle()
}

fn run_sim(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = timed_setups(|| simsession::set_up(seed));
    let mut s = setup.built;
    s.warm_up();
    let live = alloc::live_bytes() - setup.base_bytes;
    let phase = s.measure(seconds, MIN_WINDOWS);
    // Let what is in flight land, so it does not read as lost.
    s.run_window();

    let now = s.sim.now();
    let report = s.sim.app().report(now);
    let model_loss = s.schedule.loss(&s.share_channels);
    out.check(
        report.corrupted_symbols == 0 && report.wire_errors == 0,
        || {
            format!(
                "{} corrupted symbols, {} wire errors",
                report.corrupted_symbols, report.wire_errors
            )
        },
    );
    let sent_rate = report.sent_symbols as f64 / now.as_secs_f64();
    out.check(sent_rate >= 0.99 * s.offered_per_s, || {
        format!(
            "sent {sent_rate:.1} symbols/s of {:.1} offered",
            s.offered_per_s
        )
    });
    out.check((report.loss_fraction - model_loss).abs() <= 0.01, || {
        format!(
            "loss {:.5} against the schedule's L(p) {model_loss:.5}",
            report.loss_fraction
        )
    });
    out.check(
        (report.mean_k / simsession::KAPPA - 1.0).abs() <= 0.01
            && (report.mean_m / simsession::MU - 1.0).abs() <= 0.01,
        || {
            format!(
                "realized (k, m) means ({:.4}, {:.4})",
                report.mean_k, report.mean_m
            )
        },
    );
    out.notes.push(format!(
        "{} allocations in {} timed symbols; loss {:.5} (L(p) {model_loss:.5}); \
         {:.1} symbols/s offered; LP solve {:.2} ms",
        phase.allocs, phase.delivered, report.loss_fraction, s.offered_per_s, s.lp_ms
    ));

    out.attempted = report.sent_symbols;
    out.failed = report.corrupted_symbols + report.wire_errors;
    out.push(Metric::fastest("setup_s", &setup.readings));
    out.push(Metric::fastest("ns_per_symbol", &phase.window_ns));
    out.push(Metric::fastest("cpu_us_per_symbol", &phase.window_cpu_us));
    out.push(Metric::exact("delivered_ratio", 1.0 - report.loss_fraction));
    out.push(Metric::exact("bytes_per_session", live as f64));
    out.push(Metric::exact(
        "wire_bytes_per_symbol",
        s.wire_bytes_per_symbol(),
    ));
    out.settle()
}
