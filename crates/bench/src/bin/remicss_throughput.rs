//! End-to-end throughput benchmark for the zero-allocation ReMICSS data
//! path and the two event-queue engines.
//!
//! Two measurements, each printed human-readably and — under
//! `MCSS_BENCH_EMIT=1` (set by the binary itself, like every figure
//! binary) — written to `BENCH_remicss_throughput.json`:
//!
//! * **Data path**: split → frame → decode → reassemble in a tight
//!   loop, no simulator, through the one share path the engine uses
//!   (`split_into` into pre-headered pooled buffers, `ShareRef`,
//!   `accept_into`): symbols/sec and allocations per symbol.
//! * **Session**: a full simulated session at 80% of the model-optimal
//!   rate, once per queue engine. Wall-clock symbols/sec, bytes/sec,
//!   events/sec and allocations per delivered symbol are measured after
//!   a warmup window long enough for every pool, table, and timer-wheel
//!   level to reach its high-water mark (the deepest active wheel level
//!   wraps in ~1.07 s of simulated time).
//! * **Telemetry**: the report's `telemetry` section carries the
//!   heap-engine session's protocol metrics — empirical `(κ, μ)` versus
//!   configured, frame-pool hit rate, per-channel one-way delay
//!   quantiles, reassembly residency, and the global span registry
//!   (Shamir kernel and event-loop timings).
//!
//! All rates are wall-clock processing rates of this host, useful for
//! before/after comparison on the same machine — not simulated channel
//! throughput (the figures report that).

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mcss::codec::{xor2d, CodecId, CodecScratch};
use mcss::model::setups;
use mcss::netsim::{QueueKind, SimTime, Simulator};
use mcss::remicss::config::ProtocolConfig;
use mcss::remicss::reassembly::{AcceptOutcome, ReassemblyTable};
use mcss::remicss::session::{Session, Workload};
use mcss::remicss::testbed;
use mcss::remicss::wire::{put_share_header_for, ShareRef};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Symbols run before the timed window: enough to warm the buffer
/// pools and drive the resolved map to its (capped) high-water mark.
const DATAPATH_WARMUP: u64 = 10_000;
/// Symbols in the timed window.
const DATAPATH_SYMBOLS: u64 = 20_000;
/// Resolution-memory cap for the data-path tables — below the warmup
/// count so the map stops growing before measurement starts.
const DATAPATH_RESOLVED_CAP: usize = 8_192;

#[derive(Serialize)]
struct DataPathRecord {
    k: u64,
    m: u64,
    payload_bytes: u64,
    symbols: u64,
    pooled_symbols_per_sec: f64,
    pooled_allocs_per_symbol: f64,
}

#[derive(Serialize)]
struct EngineRun {
    engine: String,
    wall_millis: f64,
    events: u64,
    events_per_sec: f64,
    delivered_symbols: u64,
    symbols_per_sec: f64,
    bytes_per_sec: f64,
    allocations: u64,
    allocations_per_symbol: f64,
}

/// Per-channel one-way share delay quantiles, milliseconds of
/// simulated time.
#[derive(Serialize)]
struct ChannelDelaySummary {
    channel: usize,
    samples: u64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    max_ms: f64,
}

/// Protocol telemetry harvested from the heap-engine session run: what
/// the scheduler actually drew versus the configured `(κ, μ)`, how the
/// frame pool behaved, and the share delay / reassembly residency
/// distributions. Zeroed when the workspace is built without the
/// `telemetry` feature.
#[derive(Serialize)]
struct TelemetrySection {
    configured_kappa: f64,
    configured_mu: f64,
    empirical_kappa: f64,
    empirical_mu: f64,
    scheduler_choices: u64,
    shares_sent: u64,
    shares_received: u64,
    shares_dropped: u64,
    pool_hits: u64,
    pool_misses: u64,
    /// `hits / (hits + misses)`; 1.0 in steady state.
    pool_hit_rate: f64,
    pool_grows: u64,
    per_channel_delay: Vec<ChannelDelaySummary>,
    residency_p50_ms: f64,
    residency_p99_ms: f64,
    residency_max_ms: f64,
    /// The global registry (span timers from the Shamir kernels, event
    /// loop, and scheduler) as of report assembly.
    global: mcss::obs::MetricsSnapshot,
}

/// Raw encode rate of one codec's `split_into` over reused buffers.
#[derive(Serialize)]
struct CodecSplitRecord {
    codec: String,
    k: u64,
    m: u64,
    payload_bytes: u64,
    splits_per_sec: f64,
    /// Secret bytes encoded per second (not wire bytes).
    mb_per_sec: f64,
}

/// XOR-over-Shamir encode speedup at one `(k, m)` point.
#[derive(Serialize)]
struct CodecRatio {
    k: u64,
    m: u64,
    xor_over_shamir: f64,
}

/// The codecs' encode rates at the same `(k, m, payload)` points, plus
/// the headline ratio.
#[derive(Serialize)]
struct CodecCompare {
    records: Vec<CodecSplitRecord>,
    /// XOR-over-Shamir speedup per compared `(k, m)`.
    ratios: Vec<CodecRatio>,
    /// XOR splits/sec over Shamir splits/sec at 1 KiB, full threshold
    /// (`k = m`) — the point where both codecs do maximal coding work
    /// per byte. At `k < m` Shamir's GFNI/AVX kernels amortize the
    /// Horner evaluation across shares and the gap narrows (see the
    /// per-point `ratios`).
    xor_over_shamir: f64,
}

/// One codec at one `(k, m)` of the privacy-vs-throughput frontier:
/// what an independent-capture eavesdropper recovers against what the
/// data path sustains.
#[derive(Serialize)]
struct FrontierPoint {
    codec: String,
    k: u64,
    m: u64,
    /// Probability the eavesdropper (capturing channel `i` independently
    /// with the setup's risk `zᵢ`) recovers the symbol: `Z(p)` for
    /// Shamir, the combinatorial piece-cover probability for XOR.
    exposure: f64,
    /// Full data-path rate (split → frame → decode → reassemble).
    symbols_per_sec: f64,
    allocs_per_symbol: f64,
}

#[derive(Serialize)]
struct ThroughputReport {
    id: String,
    /// The GF(2⁸) kernel backend the Shamir hot path ran on
    /// (`Backend::name`; see `MCSS_GF256_BACKEND`).
    gf256_backend: String,
    datapath: Vec<DataPathRecord>,
    codec_compare: CodecCompare,
    codec_frontier: Vec<FrontierPoint>,
    session: Vec<EngineRun>,
    telemetry: TelemetrySection,
}

/// Symbols between sweeps, as under a driver that sweeps on a timer.
/// The table bounds its own bookkeeping (the insertion ring empties
/// whenever no partial is left), so these sweeps find nothing to do
/// and cost `O(1)`; they stay so the timed loop is the one it was.
const DATAPATH_SWEEP_EVERY: u64 = 1_024;

fn datapath_table() -> ReassemblyTable {
    // Huge timeout: nothing expires, and the resolution cap alone
    // bounds resolution memory.
    ReassemblyTable::new(SimTime::from_secs(3_600), 1 << 24)
        .with_resolved_cap(DATAPATH_RESOLVED_CAP)
}

/// `(symbols_per_sec, allocs_per_symbol)` for the data path under
/// `codec` (split → codec-tagged frame → decode → reassemble).
fn bench_datapath_codec(codec: CodecId, k: u8, m: u8, payload: &[u8]) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut table = datapath_table();
    let mut scratch = CodecScratch::new();
    let mut bufs: Vec<Vec<u8>> = (0..m).map(|_| Vec::new()).collect();
    let mut out = Vec::new();
    let mut completed = 0u64;
    let share_len = codec.share_len(payload.len(), k, m);
    let mut run = |table: &mut ReassemblyTable, rng: &mut StdRng, range: Range<u64>| {
        for seq in range {
            for (j, buf) in bufs.iter_mut().enumerate() {
                buf.clear();
                put_share_header_for(buf, codec, seq, k, m, j as u8 + 1, 0, share_len)
                    .expect("header");
            }
            codec
                .split_into(payload, k, m, rng, &mut scratch, &mut bufs)
                .expect("split");
            for buf in &bufs {
                let share = ShareRef::decode(buf).expect("decode");
                if table.accept_into(&share, SimTime::from_nanos(seq), &mut out)
                    == AcceptOutcome::Completed
                {
                    assert_eq!(out, payload, "reconstruction mismatch");
                    completed += 1;
                }
            }
            if (seq + 1).is_multiple_of(DATAPATH_SWEEP_EVERY) {
                table.sweep(SimTime::from_nanos(seq));
            }
        }
    };
    run(&mut table, &mut rng, 0..DATAPATH_WARMUP);
    let before = allocations();
    let t = Instant::now();
    run(
        &mut table,
        &mut rng,
        DATAPATH_WARMUP..DATAPATH_WARMUP + DATAPATH_SYMBOLS,
    );
    let wall = t.elapsed().as_secs_f64();
    let allocs = allocations() - before;
    assert_eq!(completed, DATAPATH_WARMUP + DATAPATH_SYMBOLS);
    (
        DATAPATH_SYMBOLS as f64 / wall,
        allocs as f64 / DATAPATH_SYMBOLS as f64,
    )
}

/// Splits/sec of one codec's bare `split_into` over reused buffers —
/// no framing or reassembly, isolating the coding cost.
fn bench_codec_split(codec: CodecId, k: u8, m: u8, payload: &[u8]) -> f64 {
    const WARM: u64 = 2_000;
    const ITERS: u64 = 30_000;
    let mut rng = StdRng::seed_from_u64(23);
    let mut scratch = CodecScratch::new();
    let mut bufs: Vec<Vec<u8>> = (0..m).map(|_| Vec::new()).collect();
    let mut run = |rng: &mut StdRng, iters: u64| {
        for _ in 0..iters {
            for buf in &mut bufs {
                buf.clear();
            }
            codec
                .split_into(payload, k, m, rng, &mut scratch, &mut bufs)
                .expect("split");
            std::hint::black_box(&bufs);
        }
    };
    run(&mut rng, WARM);
    let t = Instant::now();
    run(&mut rng, ITERS);
    ITERS as f64 / t.elapsed().as_secs_f64()
}

fn codec_split_record(codec: CodecId, k: u8, m: u8, payload: &[u8]) -> CodecSplitRecord {
    let rate = bench_codec_split(codec, k, m, payload);
    CodecSplitRecord {
        codec: codec.name().to_string(),
        k: u64::from(k),
        m: u64::from(m),
        payload_bytes: payload.len() as u64,
        splits_per_sec: rate,
        mb_per_sec: rate * payload.len() as f64 / 1e6,
    }
}

/// Per-channel capture risks of the frontier's heterogeneous 5-channel
/// setup (a `(k, m)` point uses the first `m`).
const FRONTIER_RISKS: [f64; 5] = [0.05, 0.10, 0.20, 0.25, 0.40];

/// `(k, m)` points of the privacy-vs-throughput frontier, spanning
/// replication (1, 2) through full-threshold (5, 5) on the paper's
/// five channels.
const FRONTIER_POINTS: [(u8, u8); 5] = [(1, 2), (2, 3), (2, 5), (3, 5), (5, 5)];

/// Probability an eavesdropper capturing channel `i` independently with
/// probability `risks[i]` holds at least `k` shares — Shamir's exact
/// exposure for one share per channel (`Z(p)` of this setup).
fn shamir_recovery_probability(k: u8, risks: &[f64]) -> f64 {
    let m = risks.len();
    assert!(m <= 16, "enumeration helper");
    let mut total = 0.0;
    for mask in 0u32..(1u32 << m) {
        if mask.count_ones() < u32::from(k) {
            continue;
        }
        let mut p = 1.0;
        for (i, &z) in risks.iter().enumerate() {
            p *= if mask & (1 << i) != 0 { z } else { 1.0 - z };
        }
        total += p;
    }
    total
}

fn frontier_point(codec: CodecId, k: u8, m: u8, payload: &[u8]) -> FrontierPoint {
    let risks = &FRONTIER_RISKS[..m as usize];
    let exposure = match codec {
        CodecId::Shamir => shamir_recovery_probability(k, risks),
        CodecId::Xor2d => xor2d::recovery_probability(k, m, risks),
    };
    let (rate, allocs) = bench_datapath_codec(codec, k, m, payload);
    FrontierPoint {
        codec: codec.name().to_string(),
        k: u64::from(k),
        m: u64::from(m),
        exposure,
        symbols_per_sec: rate,
        allocs_per_symbol: allocs,
    }
}

fn bench_datapath(k: u8, m: u8, payload_bytes: usize) -> DataPathRecord {
    let payload: Vec<u8> = (0..payload_bytes).map(|i| i as u8).collect();
    let (pooled_rate, pooled_allocs) = bench_datapath_codec(CodecId::Shamir, k, m, &payload);
    DataPathRecord {
        k: u64::from(k),
        m: u64::from(m),
        payload_bytes: payload_bytes as u64,
        symbols: DATAPATH_SYMBOLS,
        pooled_symbols_per_sec: pooled_rate,
        pooled_allocs_per_symbol: pooled_allocs,
    }
}

/// Configured `(κ, μ)` of the session benchmark; the telemetry section
/// reports the empirical means the scheduler actually realized.
const SESSION_KAPPA: f64 = 2.0;
const SESSION_MU: f64 = 3.0;

fn ns_to_ms(nanos: f64) -> f64 {
    nanos / 1e6
}

/// Harvests the telemetry section from a finished session.
fn telemetry_section(session: &Session) -> TelemetrySection {
    let metrics = session.metrics();
    let histograms = metrics.histograms();
    let pool = session.frame_pool();
    let (hits, misses) = (pool.hits(), pool.misses());
    let per_channel_delay = histograms
        .channels()
        .iter()
        .enumerate()
        .map(|(channel, ch)| ChannelDelaySummary {
            channel,
            samples: ch.one_way_delay.count(),
            p50_ms: ns_to_ms(ch.one_way_delay.percentile(0.50)),
            p90_ms: ns_to_ms(ch.one_way_delay.percentile(0.90)),
            p99_ms: ns_to_ms(ch.one_way_delay.percentile(0.99)),
            p999_ms: ns_to_ms(ch.one_way_delay.percentile(0.999)),
            max_ms: ns_to_ms(ch.one_way_delay.max() as f64),
        })
        .collect();
    TelemetrySection {
        configured_kappa: SESSION_KAPPA,
        configured_mu: SESSION_MU,
        empirical_kappa: metrics.empirical_kappa(),
        empirical_mu: metrics.empirical_mu(),
        scheduler_choices: metrics.choices(),
        shares_sent: metrics.shares_sent_total(),
        shares_received: metrics.shares_received_total(),
        shares_dropped: metrics.shares_dropped_total(),
        pool_hits: hits,
        pool_misses: misses,
        pool_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        pool_grows: pool.grows(),
        per_channel_delay,
        residency_p50_ms: ns_to_ms(histograms.residency.percentile(0.50)),
        residency_p99_ms: ns_to_ms(histograms.residency.percentile(0.99)),
        residency_max_ms: ns_to_ms(histograms.residency.max() as f64),
        global: mcss::obs::global_snapshot(),
    }
}

fn bench_session(kind: QueueKind, label: &str) -> (EngineRun, TelemetrySection) {
    let channels = setups::identical_n(8, 40.0);
    let config = Arc::new(
        ProtocolConfig::new(SESSION_KAPPA, SESSION_MU)
            .expect("valid config")
            .with_reassembly_timeout(SimTime::from_millis(20)),
    );
    // Past the deepest active wheel level's wrap (~1.07 s) *and* past
    // the resolved map's slow-converging high-water mark.
    let warmup = SimTime::from_millis(1_500);
    let measure = SimTime::from_secs(4);
    let rate = 0.8 * testbed::optimal_symbol_rate(&channels, &config).expect("schedulable");
    let workload = Workload::cbr(rate, warmup + measure + SimTime::from_millis(100));
    let net = testbed::network_for(&channels, &config);
    let session =
        Session::new(Arc::clone(&config), channels.len(), workload).expect("session builds");
    let mut sim = Simulator::with_queue_kind(net, session, 42, kind);
    sim.run_until(warmup);
    let delivered_before = sim.app().report(warmup).delivered_symbols;
    let events_before = sim.events_processed();
    let allocs_before = allocations();
    let t = Instant::now();
    sim.run_until(warmup + measure);
    let wall = t.elapsed().as_secs_f64();
    let allocs = allocations() - allocs_before;
    let events = sim.events_processed() - events_before;
    let delivered = sim.app().report(warmup + measure).delivered_symbols - delivered_before;
    let bytes = delivered * config.symbol_bytes() as u64;
    let run = EngineRun {
        engine: label.to_string(),
        wall_millis: wall * 1e3,
        events,
        events_per_sec: events as f64 / wall,
        delivered_symbols: delivered,
        symbols_per_sec: delivered as f64 / wall,
        bytes_per_sec: bytes as f64 / wall,
        allocations: allocs,
        allocations_per_symbol: allocs as f64 / delivered.max(1) as f64,
    };
    (run, telemetry_section(sim.app()))
}

fn main() {
    mcss_bench::report::enable_emission();
    mcss::obs::force_enable();
    let gf256_backend = mcss::gf256::simd::Backend::active().name();
    println!(
        "ReMICSS end-to-end throughput (wall-clock rates on this host; \
         GF(2\u{2078}) backend: {gf256_backend})\n"
    );

    // 64 B isolates the per-symbol fixed cost (framing, table
    // bookkeeping); 1250 B (the default symbol size) shows the realistic
    // mix where GF(2⁸) arithmetic takes a growing share of the budget.
    let datapath = vec![
        bench_datapath(2, 3, 64),
        bench_datapath(2, 3, 1_250),
        bench_datapath(3, 5, 1_250),
    ];
    for r in &datapath {
        println!(
            "data path (k={}, m={}, {} B): {:>9.0} sym/s ({:.3} allocs/sym)",
            r.k, r.m, r.payload_bytes, r.pooled_symbols_per_sec, r.pooled_allocs_per_symbol
        );
    }

    // Codec head-to-head: bare encode rate at 1 KiB (the XOR codec's
    // one RNG draw and XOR pass against Shamir's k−1 draws and Horner
    // evaluation), then the privacy-vs-throughput frontier on the
    // paper's five channels.
    let kib = vec![0xA5u8; 1_024];
    let mut records = Vec::new();
    let mut ratios = Vec::new();
    for &(k, m) in &[(3u8, 5u8), (5, 5)] {
        let shamir = codec_split_record(CodecId::Shamir, k, m, &kib);
        let xor = codec_split_record(CodecId::Xor2d, k, m, &kib);
        let ratio = xor.splits_per_sec / shamir.splits_per_sec;
        for r in [&shamir, &xor] {
            println!(
                "codec split [{:>6}] (k={}, m={}, {} B): {:>9.0} splits/s  {:>7.1} MB/s",
                r.codec, r.k, r.m, r.payload_bytes, r.splits_per_sec, r.mb_per_sec
            );
        }
        println!("codec split ratio (k={k}, m={m}): xor/shamir {ratio:.2}x");
        records.push(shamir);
        records.push(xor);
        ratios.push(CodecRatio {
            k: u64::from(k),
            m: u64::from(m),
            xor_over_shamir: ratio,
        });
    }
    let xor_over_shamir = ratios
        .iter()
        .find(|r| r.k == r.m)
        .map_or(0.0, |r| r.xor_over_shamir);
    println!();
    let codec_compare = CodecCompare {
        records,
        ratios,
        xor_over_shamir,
    };

    let symbol: Vec<u8> = (0..ProtocolConfig::DEFAULT_SYMBOL_BYTES)
        .map(|i| i as u8)
        .collect();
    let mut codec_frontier = Vec::new();
    for &(k, m) in &FRONTIER_POINTS {
        for codec in CodecId::ALL {
            let p = frontier_point(codec, k, m, &symbol);
            println!(
                "frontier [{:>6}] (k={}, m={}): exposure {:.5}  {:>9.0} sym/s  \
                 {:.3} allocs/sym",
                p.codec, p.k, p.m, p.exposure, p.symbols_per_sec, p.allocs_per_symbol
            );
            codec_frontier.push(p);
        }
    }

    println!();
    let (heap_run, heap_telemetry) = bench_session(QueueKind::Heap, "heap");
    let (wheel_run, _) = bench_session(QueueKind::Wheel, "wheel");
    let session = vec![heap_run, wheel_run];
    for r in &session {
        println!(
            "session [{:>5}]: {:>7.0} sym/s  {:>5.2} MB/s  {:>9.0} events/s  \
             {:.3} allocs/sym  ({} symbols in {:.0} ms)",
            r.engine,
            r.symbols_per_sec,
            r.bytes_per_sec / 1e6,
            r.events_per_sec,
            r.allocations_per_symbol,
            r.delivered_symbols,
            r.wall_millis
        );
    }

    let t = &heap_telemetry;
    println!(
        "\ntelemetry [heap]: κ {:.3} (configured {:.1})  μ {:.3} (configured {:.1})  \
         pool hit rate {:.4} ({} hits / {} misses, {} grows)",
        t.empirical_kappa,
        t.configured_kappa,
        t.empirical_mu,
        t.configured_mu,
        t.pool_hit_rate,
        t.pool_hits,
        t.pool_misses,
        t.pool_grows
    );
    for d in &t.per_channel_delay {
        if d.samples > 0 {
            println!(
                "telemetry [heap]: ch{} delay p50 {:.3} ms  p99 {:.3} ms  max {:.3} ms  \
                 ({} shares)",
                d.channel, d.p50_ms, d.p99_ms, d.max_ms, d.samples
            );
        }
    }

    let report = ThroughputReport {
        id: "remicss_throughput".to_string(),
        gf256_backend: gf256_backend.to_string(),
        datapath,
        codec_compare,
        codec_frontier,
        session,
        telemetry: heap_telemetry,
    };
    mcss_bench::report::emit_value(&report.id, &report);
}
