//! Figure 7: optimal and achieved rate on the Identical setup with
//! `μ = 5` and `κ ∈ {1..5}` as the per-channel rate grows.
//!
//! With `μ = 5` the overall rate is one fifth of Figure 6's, so the
//! channels stay the bottleneck longer; but the threshold now matters:
//! reconstruction cost grows with `k²`, so large `κ` saturates the
//! receiver well before small `κ` — "large κ values causing the protocol
//! to fall short of optimal much sooner".

use std::time::Instant;

use mcss::prelude::*;
use mcss::remicss::cpu::CpuModel;

use crate::report::BenchReport;
use crate::sweep;
use crate::{mbps, run_session, Mode, Row};

/// The `(κ, per-channel rate)` grid the mode sweeps.
#[must_use]
pub fn grid(mode: Mode) -> Vec<(u64, u64)> {
    let step = match mode {
        Mode::Quick => 175,
        Mode::Full => 25,
    };
    let mut points = Vec::new();
    for kappa_i in 1..=5u64 {
        for rate in (100..=800).step_by(step) {
            points.push((kappa_i, rate));
        }
    }
    points
}

/// Evaluates one `(κ, rate)` point at `μ = 5` under the paper CPU model.
fn eval(mode: Mode, kappa_i: u64, rate: u64) -> Row {
    let channels = setups::identical(rate as f64);
    let config = ProtocolConfig::new(kappa_i as f64, 5.0).expect("valid parameters");
    let opt_symbols = testbed::optimal_symbol_rate(&channels, &config).expect("valid mu");
    let report = run_session(
        &channels,
        config.clone(),
        Workload::cbr(opt_symbols * 1.05, mode.duration()),
        0xF177 ^ (kappa_i << 16) ^ rate,
        Some(CpuModel::paper_testbed()),
    );
    Row {
        label: format!("k{kappa_i}"),
        x: rate as f64,
        optimal: testbed::payload_bps(opt_symbols, &config),
        actual: report.achieved_payload_bps,
    }
}

/// Runs the Figure 7 sweep; `x` is the per-channel rate in Mbit/s and
/// rows are labelled by κ.
pub fn run(mode: Mode) -> Vec<Row> {
    println!("=== Figure 7: rate scaling on Identical setup, mu = 5, kappa = 1..5 ===");
    println!(
        "{:>6} {:>10} {:>13} {:>13} {:>7}",
        "kappa", "chan Mbps", "optimal Mbps", "actual Mbps", "ratio"
    );
    let threads = sweep::default_threads();
    let start = Instant::now();
    let points = grid(mode);
    let timed = sweep::map_ordered(&points, threads, |&(kappa_i, rate)| {
        eval(mode, kappa_i, rate)
    });
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for (&(kappa_i, rate), row) in points.iter().zip(&timed) {
        println!(
            "{:>6.1} {rate:>10} {:>13.1} {:>13.1} {:>7.3}",
            kappa_i as f64,
            mbps(row.value.optimal),
            mbps(row.value.actual),
            row.value.ratio()
        );
    }
    println!("\nshape check: all kappa track optimal at low channel rates; as rates");
    println!("grow, kappa = 5 falls short first (quadratic reconstruction cost),");
    println!("kappa = 1 last — the threshold barely affects rate until saturation.");
    BenchReport::new("fig7", mode.label(), threads, wall, &timed).emit();
    timed.into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_kappa_saturates_sooner() {
        let rows = run(Mode::Quick);
        let plateau = |k: u32| -> f64 {
            rows.iter()
                .filter(|r| r.label == format!("k{k}") && r.x >= 600.0)
                .map(|r| r.actual)
                .fold(0.0, f64::max)
        };
        let p1 = plateau(1);
        let p5 = plateau(5);
        assert!(
            p5 < 0.8 * p1,
            "kappa=5 plateau {p5} should be well below kappa=1 plateau {p1}"
        );
        // At the lowest channel rate every kappa is near optimal.
        for k in 1..=5 {
            let first = rows
                .iter()
                .find(|r| r.label == format!("k{k}") && (r.x - 100.0).abs() < 1e-9)
                .unwrap();
            assert!(
                first.ratio() > 0.85,
                "kappa={k} at 100 Mbit/s: ratio {:.3}",
                first.ratio()
            );
        }
    }

    #[test]
    fn grid_matches_serial_loop() {
        let points = grid(Mode::Quick);
        assert_eq!(points.len(), 25);
        assert_eq!(points[0], (1, 100));
        assert_eq!(points[4], (1, 800));
        assert_eq!(*points.last().unwrap(), (5, 800));
    }
}
