//! The traced run: the per-layer ledger of one workload.
//!
//! It replays the workload at four depths (see `layers.rs`), records a
//! span around every call into a layer for one symbol in
//! [`SAMPLE_EVERY`], writes the spans to `benchmark/out/`, and derives
//! each row from them. End-to-end metrics never come from here; the
//! untraced loop this run also times exists only so that the ledger has
//! a total to add up to and the tracer an overhead to own up to.
//!
//! Every `*_ns` row is nanoseconds per *reconstructed* symbol (span
//! time per offered symbol over the delivered ratio), the unit of
//! `ns_per_symbol`, unless its name says per what else.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcss_base::QueueKind;
use mcss_codec::CodecId;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::wire::{header_bytes, CID_PREFIX_BYTES};
use mcss_server::IoMode;

use crate::alloc;
use crate::layers::{self, EngineStack, WireStack};
use crate::loopback;
use crate::mem;
use crate::memloop::{Driver, MemSpec, Stack, SHARDS};
use crate::report::{Metric, Outcome, Workload};
use crate::simsession;
use crate::spec::PER_LAYER;
use crate::stats::{mean_over, quiet_windows, CpuRotation, Summary};
use crate::trace::{Ledger, Off, Probe as _, Tracer};

/// One symbol in this many carries spans at levels 1 to 3.
const SAMPLE_EVERY: u64 = 64;
/// Spans kept per level for the span file (the first sampled symbols'
/// timelines; the ledger's totals take every sampled symbol), which
/// bounds the file however long the run.
const SPAN_CAPACITY: usize = 20_000;
const MIN_WINDOWS: usize = 3;

/// The per-layer rows of one run, by name.
struct Rows(Vec<(&'static str, f64)>);

impl Rows {
    fn new() -> Self {
        Rows(Vec::new())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(row) => row.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Every per-layer metric in table order; a row nothing set reads 0.
    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| Metric::exact(name, self.get(name)))
            .collect()
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut rows = Rows::new();
    let mut levels: Vec<String> = Vec::new();
    let (rows_mut, levels_mut) = (&mut rows, &mut levels);
    match (workload, mem::spec_of(workload)) {
        (_, Some(spec)) => {
            trace_mem(&spec, seed, seconds, rows_mut, &mut out, levels_mut);
        }
        (Workload::SimSession, None) => trace_sim(seed, seconds, rows_mut, &mut out, levels_mut),
        (_, None) => trace_loop(seed, seconds, rows_mut, &mut out, levels_mut),
    }
    match write_trace(workload, seed, &levels) {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.problems.push(format!("trace file not written: {e}")),
    }
    out.metrics = rows.into_metrics();
    out.settle()
}

/// Writes `benchmark/out/trace-<workload>.json`.
fn write_trace(workload: Workload, seed: u64, levels: &[String]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\
         \"span\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"symbol\"],\"levels\":[\n{}\n]}}\n",
        workload.name(),
        levels.join(",\n")
    );
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}

/// Isolated calls at the sizes this protocol configuration produces.
fn isolated(protocol: &ProtocolConfig, queue_depth: usize, seed: u64, rows: &mut Rows) {
    let kernels = layers::kernels(
        protocol.share_wire_bytes() - header_bytes(protocol.codec()),
        seed,
    );
    rows.set("gf256.scale_add_ns_per_kib", kernels.scale_add_ns_per_kib);
    rows.set("gf256.horner3_ns_per_kib", kernels.horner3_ns_per_kib);
    rows.set("gf256.xor_ns_per_kib", kernels.xor_ns_per_kib);
    rows.set("base.pool_take_put_ns", layers::pool_take_put_ns());
    rows.set(
        "base.queue_push_pop_ns.heap",
        layers::queue_push_pop_ns(QueueKind::Heap, queue_depth, seed),
    );
    rows.set(
        "base.queue_push_pop_ns.wheel",
        layers::queue_push_pop_ns(QueueKind::Wheel, queue_depth, seed),
    );
    let (record, span) = layers::obs_ns();
    rows.set("obs.hist_record_ns", record);
    rows.set("obs.span_ns", span);
    rows.set(
        "wire.overhead_bytes_per_share",
        (CID_PREFIX_BYTES + header_bytes(protocol.codec())) as f64,
    );
}

/// One traced phase of the driver on a freshly built stack: untraced
/// warm-up, then windows under the tracer.
struct LevelRun {
    /// Drawn from the phase's quiet windows.
    ledger: Ledger,
    /// Reconstructed over settled symbols in the traced phase.
    delivered_ratio: f64,
    /// Live heap the stack held once warm.
    stack_bytes: u64,
}

fn run_level<S: Stack>(
    level: &str,
    build: impl FnOnce() -> S,
    spec: &MemSpec,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
    levels: &mut Vec<String>,
) -> (LevelRun, S) {
    let mut driver = Driver::new(spec, seed);
    let live_before = alloc::live_bytes();
    let mut stack = build();
    mem::warm_up(&mut driver, &mut stack, spec, &mut Off);
    let stack_bytes = alloc::live_bytes().saturating_sub(live_before);
    let mut tracer = Tracer::new(SPAN_CAPACITY, SAMPLE_EVERY, spec.window_symbols);
    let phase = mem::measure(
        &mut driver,
        &mut stack,
        spec.window_symbols,
        seconds,
        MIN_WINDOWS,
        &mut tracer,
    );
    driver.finish(&mut stack);
    let whole = driver.counters;
    out.check(
        whole.failed() == 0 && whole.finalized == whole.offered,
        || format!("level {level}: symbols with a wrong outcome: {whole:?}"),
    );
    let quiet = quiet_windows(&phase.window_ns);
    let mut json = String::new();
    tracer.write_json(level, &quiet, &mut json);
    levels.push(json);
    let run = LevelRun {
        ledger: tracer.ledger(&quiet),
        delivered_ratio: phase.delivered_ratio(),
        stack_bytes,
    };
    (run, stack)
}

/// Levels 0 to 2 and the isolated calls for one protocol configuration
/// under the harness channel `spec` describes. Returns nothing: it
/// fills the codec, wire, reassembly, scheduler and engine rows.
fn trace_below_shard(
    spec: &MemSpec,
    protocol: &Arc<ProtocolConfig>,
    seed: u64,
    seconds: f64,
    rows: &mut Rows,
    out: &mut Outcome,
    levels: &mut Vec<String>,
) {
    // Level 2: bare engines.
    let (l2, engines) = run_level(
        "2",
        || EngineStack::new(protocol, spec.sessions, seed),
        spec,
        seed,
        seconds * 0.4,
        out,
        levels,
    );
    let per = |ledger: &Ledger, ratio: f64, name: &str| ledger.per_symbol(name) / ratio;
    rows.set(
        "engine.bytes_per_session",
        l2.stack_bytes as f64 / f64::from(spec.sessions),
    );
    let engine_symbol = per(&l2.ledger, l2.delivered_ratio, "engine.symbol");
    let engine_frame = per(&l2.ledger, l2.delivered_ratio, "engine.frame");
    rows.set("engine.symbol_ns", engine_symbol);
    rows.set("engine.frame_ns", engine_frame);
    rows.set(
        "engine.timer_ns",
        per(&l2.ledger, l2.delivered_ratio, "engine.timer"),
    );
    // Actions over every symbol the stack saw, warm-up included: the
    // pump counts from its first call.
    let l2_reassembly = engines.reassembly();
    rows.set(
        "engine.actions_per_symbol",
        engines.actions as f64 / l2_reassembly.completed.max(1) as f64,
    );
    drop(engines);

    // Level 1: scheduler, wire, codec, reassembly tables.
    let (l1, wire) = run_level(
        "1",
        || WireStack::new(protocol, spec.sessions, seed),
        spec,
        seed,
        seconds * 0.4,
        out,
        levels,
    );
    let ratio = l1.delivered_ratio;
    let draw = per(&l1.ledger, ratio, "scheduler.draw");
    let header = per(&l1.ledger, ratio, "wire.header");
    let split_in_place = per(&l1.ledger, ratio, "codec.split");
    let decode = per(&l1.ledger, ratio, "wire.decode");
    let accept_raw = per(&l1.ledger, ratio, "reassembly.accept");
    let accept_partial = per(&l1.ledger, ratio, "reassembly.accept_partial");
    rows.set("scheduler.draw_ns", draw);
    rows.set("wire.header_ns", header);
    rows.set("wire.decode_ns", decode);
    rows.set("reassembly.accept_partial_ns", accept_partial);
    let stats = wire.reassembly();
    let settled = stats.completed + stats.timeout_evictions + stats.memory_evictions;
    let evicted = stats.timeout_evictions + stats.memory_evictions;
    rows.set(
        "reassembly.evicted_per_symbol",
        evicted as f64 / settled.max(1) as f64,
    );
    rows.set(
        "reassembly.dup_or_late_per_symbol",
        (stats.duplicates + stats.stale) as f64 / settled.max(1) as f64,
    );
    // Sweeps are timed on every symbol and evictions come at a steady
    // rate, so time per eviction is the ratio of the two per-symbol
    // rates.
    rows.set(
        "reassembly.sweep_ns_per_evicted",
        if evicted == 0 {
            0.0
        } else {
            l1.ledger.per_symbol("reassembly.sweep") * settled as f64 / evicted as f64
        },
    );
    rows.set("reassembly.pool_hit_ratio", wire.pool_hit_ratio());
    rows.set("reassembly.buffered_bytes_peak", wire.buffered_peak as f64);
    drop(wire);

    // Level 0: the codec alone, every symbol spanned.
    let mut tracer = Tracer::new(SPAN_CAPACITY, 1, layers::CODEC_WINDOW);
    let codec = layers::codec_only(protocol, seed, seconds * 0.2, &mut tracer);
    out.check(codec.wrong == 0, || {
        format!(
            "level 0: {} reconstructions differ from the secret",
            codec.wrong
        )
    });
    let quiet = quiet_windows(&codec.window_ns);
    let l0 = tracer.ledger(&quiet);
    let mut json = String::new();
    tracer.write_json("0", &quiet, &mut json);
    levels.push(json);
    // Level 0 offers and reconstructs every symbol; scale to the
    // workload's own ratio of splits and reconstructions per
    // reconstructed symbol.
    let split = l0.per_symbol("codec.split") / ratio;
    let reconstruct = l0.per_symbol("codec.reconstruct");
    rows.set("codec.split_ns", split);
    rows.set("codec.reconstruct_ns", reconstruct);
    rows.set(
        "gf256.bytes_per_symbol",
        codec.kernel_bytes as f64 / codec.symbols.max(1) as f64,
    );
    rows.set("reassembly.accept_ns", (accept_raw - reconstruct).max(0.0));
    rows.set(
        "engine.symbol_self_ns",
        (engine_symbol - draw - header - split_in_place).max(0.0),
    );
    rows.set(
        "engine.frame_self_ns",
        (engine_frame - decode - accept_raw - accept_partial).max(0.0),
    );
}

fn trace_mem(
    spec: &MemSpec,
    seed: u64,
    seconds: f64,
    rows: &mut Rows,
    out: &mut Outcome,
    levels: &mut Vec<String>,
) -> f64 {
    let protocol = spec.protocol();
    // Level 3, untraced then traced on the same warm stack.
    let (mut stack, mut driver) = mem::set_up(spec, seed);
    mem::warm_up(&mut driver, &mut stack, spec, &mut Off);
    let untraced = mem::measure(
        &mut driver,
        &mut stack,
        spec.window_symbols,
        seconds * 0.3,
        MIN_WINDOWS,
        &mut Off,
    );
    let handoffs_before = stack.totals().handoff_in;
    let mut tracer = Tracer::new(SPAN_CAPACITY, SAMPLE_EVERY, spec.window_symbols);
    let traced = mem::measure(
        &mut driver,
        &mut stack,
        spec.window_symbols,
        seconds * 0.4,
        MIN_WINDOWS,
        &mut tracer,
    );
    let handoffs = stack.totals().handoff_in - handoffs_before;
    driver.finish(&mut stack);
    let whole = driver.counters;
    out.check(
        whole.failed() == 0 && whole.finalized == whole.offered,
        || format!("level 3: symbols with a wrong outcome: {whole:?}"),
    );
    drop(stack);
    out.attempted = whole.finalized;
    out.failed = whole.failed();
    let quiet = quiet_windows(&traced.window_ns);
    let mut json = String::new();
    tracer.write_json("3", &quiet, &mut json);
    levels.push(json);

    // Both totals are means over the quiet windows of their own phase,
    // as the ledger rows are over the traced phase's.
    let untraced_ns = mean_over(&untraced.window_ns, &quiet_windows(&untraced.window_ns));
    let traced_ns = mean_over(&traced.window_ns, &quiet);
    let ratio = traced.delivered_ratio();
    let l3 = tracer.ledger(&quiet);
    let stage = |name: &str| l3.per_symbol(name) / ratio;
    let stages = [
        ("shard.offer_ns", stage("shard.offer")),
        ("shard.outbound_pop_ns", stage("shard.outbound_pop")),
        ("shard.route_ns", stage("shard.route")),
        ("shard.handoff_ns", stage("shard.handoff")),
        ("shard.delivered_pop_ns", stage("shard.delivered_pop")),
        ("shard.poll_timers_ns", stage("shard.poll_timers")),
        (
            "harness.self_ns",
            l3.self_per_symbol("harness.symbol") / ratio,
        ),
    ];
    let mut accounted = 0.0;
    for (name, value) in stages {
        rows.set(name, value);
        accounted += value;
    }
    // The explicit residual: what the untraced loop takes that no
    // stage's span claims. It may be negative, when tracing slows the
    // stages by more than the span overhead the ledger subtracts.
    rows.set("shard.unaccounted_ns", untraced_ns - accounted);
    rows.set("trace.overhead_ratio", traced_ns / untraced_ns);
    rows.set(
        "shard.handoffs_per_symbol",
        handoffs as f64 / traced.counters.offered.max(1) as f64,
    );
    rows.set("alloc.allocs_per_symbol", untraced.allocs_per_symbol());
    let (seen, sampled) = tracer.seen_and_sampled();
    out.notes.push(format!(
        "level 3: untraced {untraced_ns:.0} ns, traced {traced_ns:.0} ns per symbol; \
         {sampled} of {seen} symbols sampled, {} of {} windows quiet, span overhead {:.0} ns",
        quiet.len(),
        traced.window_ns.len(),
        tracer.span_overhead_ns()
    ));

    trace_below_shard(spec, &protocol, seed, seconds * 0.8, rows, out, levels);
    rows.set(
        "shard.offer_self_ns",
        rows.get("shard.offer_ns") - rows.get("engine.symbol_ns"),
    );
    // The engine does the same work for a frame whichever shard read
    // it, so its share comes off routed and handed-off frames together.
    rows.set(
        "shard.route_self_ns",
        rows.get("shard.route_ns") + rows.get("shard.handoff_ns") - rows.get("engine.frame_ns"),
    );
    isolated(&protocol, spec.sessions as usize / SHARDS, seed, rows);
    untraced_ns
}

fn trace_loop(
    seed: u64,
    seconds: f64,
    rows: &mut Rows,
    out: &mut Outcome,
    levels: &mut Vec<String>,
) {
    let offered = loopback::OFFERED_PER_S as f64;
    let measured = |io: IoMode, rate: f64, share: f64, out: &mut Outcome| {
        let measure = Duration::from_secs_f64(seconds * share);
        let mut server = loopback::set_up(seed, io, rate, measure).expect("loopback sockets bind");
        let run = loopback::run(&mut server, measure).expect("server run completes");
        out.check(run.flagged == 0, || {
            format!(
                "session reports flag {} corrupted symbols or wire errors",
                run.flagged
            )
        });
        run
    };

    let run = measured(IoMode::Auto, offered, 0.35, out);
    out.check(run.delivered_ratio() >= 0.99, || {
        format!("delivered {:.4} of sent, below 0.99", run.delivered_ratio())
    });
    out.attempted = run.phased.run.sent_symbols;
    out.failed = run.lost();
    let symbols = run.symbols.max(1) as f64;
    let w = run.phased.window;
    let in_window = w.delivered_symbols.max(1) as f64;
    // The fastest sub-window, as in the untraced run.
    let cpu_us = Summary::of(&run.window_cpu_us).min;
    rows.set("udp.user_us_per_symbol", run.cpu.user * 1e6 / symbols);
    rows.set("udp.sys_us_per_symbol", run.cpu.sys * 1e6 / symbols);
    rows.set("udp.wakeups_per_symbol", w.wakeups as f64 / in_window);
    rows.set(
        "udp.syscalls_per_symbol",
        (w.syscalls_recv + w.syscalls_send) as f64 / in_window,
    );
    rows.set("udp.datagrams_per_syscall", w.datagrams_per_syscall());
    rows.set("udp.handoffs_per_symbol", w.handoffs as f64 / in_window);
    rows.set("udp.send_drops", w.send_drops as f64);
    rows.set("udp.mean_delay_us", run.mean_delay_us);
    rows.set("udp.sent_vs_scheduled", run.sent_vs_scheduled(offered));

    let busy = measured(IoMode::Busypoll, offered, 0.15, out);
    rows.set(
        "udp.busypoll_cpu_us_per_symbol",
        Summary::of(&busy.window_cpu_us).min,
    );
    // Informational: what the server delivers when offered four times
    // the fixed rate. Not steady on a shared host, hence not gated.
    let peak = measured(IoMode::Auto, offered * 4.0, 0.15, out);
    rows.set(
        "udp.peak_delivered_per_s",
        peak.phased.window.delivered_per_sec(),
    );

    // The same protocol configuration and fleet without sockets: the
    // whole ledger of `mem_fleet`, and the kernel's share by difference.
    let mut inner = Outcome::default();
    let mem_ns = trace_mem(
        &mem::fleet(),
        seed,
        seconds * 0.35,
        rows,
        &mut inner,
        levels,
    );
    out.problems.append(&mut inner.problems);
    out.notes.append(&mut inner.notes);
    rows.set("udp.kernel_residual_us", cpu_us - mem_ns / 1e3);
    out.notes.push(format!(
        "{} backend: {cpu_us:.2} us CPU per symbol at {offered:.0} symbols/s against \
         {:.2} us for the same fleet in memory",
        run_backend_name(),
        mem_ns / 1e3
    ));
}

fn run_backend_name() -> &'static str {
    IoMode::Auto.resolve().map_or("unresolved", |b| b.name())
}

fn trace_sim(
    seed: u64,
    seconds: f64,
    rows: &mut Rows,
    out: &mut Outcome,
    levels: &mut Vec<String>,
) {
    // Level 3: the simulator; one span per window of simulated time.
    let mut s = simsession::set_up(seed);
    s.warm_up();
    let untraced = s.measure(seconds * 0.3, MIN_WINDOWS);
    // Each window is one "symbol" of this tracer, and a window of its
    // own.
    let mut tracer = Tracer::new(SPAN_CAPACITY, 1, 1);
    let mut rotation = CpuRotation::start();
    let mut traced_ns = Vec::new();
    let started = Instant::now();
    let mut window = 0;
    while traced_ns.len() < MIN_WINDOWS || started.elapsed().as_secs_f64() < seconds * 0.4 {
        rotation.advance();
        let before = s.delivered();
        tracer.symbol(window);
        window += 1;
        let t = Instant::now();
        tracer.enter("netsim.run_until");
        s.run_window();
        tracer.exit();
        traced_ns.push(t.elapsed().as_nanos() as f64 / (s.delivered() - before).max(1) as f64);
    }
    drop(rotation);
    let quiet = quiet_windows(&traced_ns);
    let mut json = String::new();
    tracer.write_json("3", &quiet, &mut json);
    levels.push(json);
    let report = s.sim.app().report(s.sim.now());
    out.check(
        report.corrupted_symbols == 0 && report.wire_errors == 0,
        || {
            format!(
                "{} corrupted symbols, {} wire errors",
                report.corrupted_symbols, report.wire_errors
            )
        },
    );
    out.attempted = report.sent_symbols;
    out.failed = report.corrupted_symbols + report.wire_errors;
    let untraced_ns = mean_over(&untraced.window_ns, &quiet_windows(&untraced.window_ns));
    let events_per_symbol = untraced.events as f64 / untraced.delivered.max(1) as f64;
    rows.set("netsim.events_per_symbol", events_per_symbol);
    rows.set("netsim.ns_per_event", untraced_ns / events_per_symbol);
    rows.set(
        "alloc.allocs_per_symbol",
        untraced.allocs as f64 / untraced.delivered.max(1) as f64,
    );
    rows.set(
        "trace.overhead_ratio",
        mean_over(&traced_ns, &quiet) / untraced_ns,
    );
    // Both are tens of microseconds: repeat them and keep the fastest.
    let solves: Vec<f64> = (0..51).map(|_| simsession::set_up(seed).lp_ms).collect();
    rows.set("lp.solve_ms", Summary::of(&solves).min);
    let mut metrics = (0.0, 0.0, 0.0);
    let evaluations: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            metrics = (
                s.schedule.risk(&s.share_channels),
                s.schedule.loss(&s.share_channels),
                s.schedule.delay(&s.share_channels),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rows.set("core.schedule_metrics_us", Summary::of(&evaluations).min);
    out.notes.push(format!(
        "schedule Z/L/D = {:.5}/{:.5}/{:.5}; untraced {untraced_ns:.0} ns per symbol",
        metrics.0, metrics.1, metrics.2
    ));
    let protocol = Arc::clone(&s.config);
    let step_ns = (1e9 / s.offered_per_s) as u64;
    drop(s);

    // Levels 0 to 2 at the session's protocol configuration: one
    // session, symbols a source period apart, a lossless channel (the
    // simulated links' loss is the simulator's business, level 3).
    let spec = MemSpec {
        sessions: 1,
        kappa: simsession::KAPPA,
        mu: simsession::MU,
        symbol_bytes: protocol.symbol_bytes(),
        codec: CodecId::Shamir,
        burst: 1,
        step_ns,
        timeout: protocol.reassembly_timeout(),
        drop: 0.0,
        dup: 0.0,
        detour: 0.0,
        depth: 0,
        window_symbols: simsession::WINDOW_SYMBOLS,
    };
    trace_below_shard(&spec, &protocol, seed, seconds * 0.8, rows, out, levels);
    // The simulator keeps a few events per share in flight; its queue
    // runs a few hundred deep at this load.
    isolated(&protocol, 512, seed, rows);
}
