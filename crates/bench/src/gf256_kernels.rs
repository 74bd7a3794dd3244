//! GF(2⁸) kernel microbenchmark: bytes/sec per backend, per op, per
//! length class, with the measured speedup against the scalar reference.
//!
//! Every backend available on the host is driven directly (not through
//! the process-wide dispatch), so one run reports the whole matrix the
//! `MCSS_GF256_BACKEND` override can select from. Under
//! `MCSS_BENCH_EMIT=1` — set by the binary itself, like every figure
//! binary — the results land in `BENCH_gf256_kernels.json`.
//!
//! Rates are wall-clock bytes/sec of this host and are meant for
//! before/after comparison on the same machine. The `speedup_vs_scalar`
//! column divides same-run rates, so it is robust to absolute load but,
//! like every wall-clock ratio here, can wobble on an oversubscribed
//! host; compare repeated runs before trusting small deltas.

use std::time::Instant;

use mcss::gf256::simd::{Backend, MulTable};
use mcss::gf256::Gf256;
use serde::Serialize;

/// Bytes processed per (backend, op, length) measurement. Large enough
/// to swamp timer granularity, small enough that the full matrix stays
/// in CI budget.
const TARGET_BYTES: usize = 1 << 25;

/// Plane lengths: two short planes bracketing the vector widths (64 B
/// is also the fleet workloads' share size), a few vector widths'
/// worth, the protocol's default symbol size neighborhood, and two
/// cache-resident batch sizes.
const LENGTHS: [usize; 6] = [16, 64, 256, 1_024, 16_384, 262_144];

/// Planes in the one-output Horner measurement (a κ = 4 split).
const HORNER_PLANES: usize = 4;

/// `(k, m)` of the `eval{k}x{m}` rows (all `m` shares of a symbol from
/// its `k` planes in one call) and, by their `k`, of the `combine{k}`
/// rows (the secret from `k` shares): the fleet workloads' `(2, 3)`,
/// the bulk workload's `(3, 5)`, and a square `(5, 5)`.
const SYMBOL_SHAPES: [(usize, usize); 3] = [(2, 3), (3, 5), (5, 5)];

/// Share lengths of those rows: the fleet and the bulk workloads'.
const SYMBOL_LENGTHS: [usize; 2] = [64, 1_250];

/// Where in its buffer an output of those rows starts: at the front,
/// and behind a frame's 31 header bytes, where the protocol writes.
const OUTPUT_HEADS: [usize; 2] = [0, 31];

/// One measured cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRecord {
    /// Backend name (`scalar` | `table` | `simd` | `neon` | `gfni`).
    pub backend: String,
    /// Kernel name (`scale_add` | `add_scaled` | `scale` | `horner4` |
    /// `eval{k}x{m}` | `combine{k}`).
    pub op: String,
    /// Plane length in bytes.
    pub len: u64,
    /// Bytes between the start of an output's allocation and its first
    /// byte: 0, or 31 where a share lies behind its frame header.
    pub head: u64,
    /// Wall-clock processing rate.
    pub bytes_per_sec: f64,
    /// This cell's rate over the scalar backend's rate for the same
    /// (op, len).
    pub speedup_vs_scalar: f64,
}

/// The full `BENCH_gf256_kernels.json` payload.
#[derive(Debug, Clone, Serialize)]
pub struct KernelReport {
    /// Report identifier (`gf256_kernels`).
    pub id: String,
    /// The backend `Backend::active()` picked on this host (what the
    /// protocol data path actually runs).
    pub active_backend: String,
    /// Backends measured (all available on this host).
    pub backends: Vec<String>,
    /// The matrix, grouped by op, then length, then backend.
    pub records: Vec<KernelRecord>,
}

/// A kernel invocation under measurement.
#[derive(Clone, Copy)]
enum Op {
    ScaleAdd,
    AddScaled,
    Scale,
    Horner,
    /// All `m` shares from `k` planes.
    Eval {
        k: usize,
        m: usize,
    },
    /// One secret from `k` shares.
    Combine {
        k: usize,
    },
}

impl Op {
    fn name(self) -> String {
        match self {
            Op::ScaleAdd => "scale_add".to_string(),
            Op::AddScaled => "add_scaled".to_string(),
            Op::Scale => "scale".to_string(),
            Op::Horner => format!("horner{HORNER_PLANES}"),
            Op::Eval { k, m } => format!("eval{k}x{m}"),
            Op::Combine { k } => format!("combine{k}"),
        }
    }

    /// Output bytes written per invocation (the rate denominator; the
    /// Horner, `eval` and `combine` rows also read their `k` input
    /// planes per output byte, like the per-plane loops they replace).
    fn bytes_per_iter(self, len: usize) -> usize {
        match self {
            Op::Eval { m, .. } => m * len,
            _ => len,
        }
    }
}

/// The operands of one measurement: `outs[j][head..]` are the outputs,
/// `planes` the inputs, all `len` bytes long.
struct Operands {
    outs: Vec<Vec<u8>>,
    planes: Vec<Vec<u8>>,
    head: usize,
}

impl Operands {
    fn new(len: usize, head: usize, planes: usize, outs: usize) -> Self {
        let fill = |salt: usize| (0..len).map(|i| (i * 11 + salt * 3 + 1) as u8).collect();
        Operands {
            outs: (0..outs).map(|_| vec![0u8; head + len]).collect(),
            planes: (0..planes).map(fill).collect(),
            head,
        }
    }
}

/// Runs `op` on `backend` until ~[`TARGET_BYTES`] are processed and
/// returns bytes/sec. Buffers are caller-provided and reused so the
/// loop body is exactly the kernel.
fn measure(backend: Backend, op: Op, operands: &mut Operands) -> f64 {
    let len = operands.planes[0].len();
    let iters = (TARGET_BYTES / op.bytes_per_iter(len).max(1)).max(8);
    // Warm caches and fault pages outside the timed window.
    run_op(backend, op, operands, 2);
    let start = Instant::now();
    run_op(backend, op, operands, iters);
    let wall = start.elapsed().as_secs_f64();
    (iters * op.bytes_per_iter(len)) as f64 / wall
}

fn run_op(backend: Backend, op: Op, operands: &mut Operands, iters: usize) {
    let t = MulTable::of(Gf256::new(0x53));
    let head = operands.head;
    let planes: Vec<&[u8]> = operands.planes.iter().map(Vec::as_slice).collect();
    let (dst, outs) = operands.outs.split_first_mut().expect("an output");
    let dst = &mut dst[head..];
    let src = planes[0];
    for _ in 0..iters {
        match op {
            Op::ScaleAdd => backend.scale_add_assign(dst, src, t),
            Op::AddScaled => backend.add_scaled_assign(dst, src, t),
            Op::Scale => backend.scale_assign(dst, t),
            Op::Horner => backend.horner_into(dst, &planes, t),
            Op::Eval { .. } => {
                // Share j at x = j + 1, as a split evaluates them.
                let shares =
                    std::iter::once(&mut *dst).chain(outs.iter_mut().map(|o| &mut o[head..]));
                backend.eval_into(shares.zip(1..).map(|(o, x)| (Gf256::new(x), o)), &planes);
            }
            Op::Combine { .. } => {
                let weighted = planes.iter().zip(3..).map(|(&s, w)| (Gf256::new(w), s));
                backend.combine_into(dst, weighted);
            }
        }
    }
    std::hint::black_box(&dst[..]);
}

/// Runs the whole matrix, prints the table, and emits
/// `BENCH_gf256_kernels.json` (when emission is enabled).
pub fn run() -> KernelReport {
    let available: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    let active = Backend::active();
    println!(
        "GF(256) kernel microbench — active backend: {} (override with MCSS_GF256_BACKEND)\n",
        active.name()
    );

    let mut records = Vec::new();
    let one_output = [Op::ScaleAdd, Op::AddScaled, Op::Scale, Op::Horner]
        .into_iter()
        .flat_map(|op| LENGTHS.map(|len| (op, len, 0)));
    let symbols = SYMBOL_SHAPES
        .into_iter()
        .flat_map(|(k, m)| [Op::Eval { k, m }, Op::Combine { k }])
        .flat_map(|op| SYMBOL_LENGTHS.map(|len| (op, len)))
        .flat_map(|(op, len)| OUTPUT_HEADS.map(|head| (op, len, head)));
    for (op, len, head) in one_output.chain(symbols) {
        let (planes, outs) = match op {
            Op::Eval { k, m } => (k, m),
            Op::Combine { k } => (k, 1),
            _ => (HORNER_PLANES, 1),
        };
        let mut operands = Operands::new(len, head, planes, outs);
        let mut scalar_rate = 0.0;
        for &backend in &available {
            let rate = measure(backend, op, &mut operands);
            if backend == Backend::Scalar {
                scalar_rate = rate;
            }
            let speedup = if scalar_rate > 0.0 {
                rate / scalar_rate
            } else {
                1.0
            };
            println!(
                "{:>10} {:>8} B +{:<2} {:>6}: {:>8.1} MB/s  ({:.2}x scalar)",
                op.name(),
                len,
                head,
                backend.name(),
                rate / 1e6,
                speedup
            );
            records.push(KernelRecord {
                backend: backend.name().to_string(),
                op: op.name(),
                len: len as u64,
                head: head as u64,
                bytes_per_sec: rate,
                speedup_vs_scalar: speedup,
            });
        }
    }
    let report = KernelReport {
        id: "gf256_kernels".to_string(),
        active_backend: active.name().to_string(),
        backends: available.iter().map(|b| b.name().to_string()).collect(),
        records,
    };
    crate::report::emit_value(&report.id, &report);
    report
}
