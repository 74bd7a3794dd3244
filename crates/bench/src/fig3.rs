//! Figure 3: optimal and actual rate over `(κ, μ)` on the 100 Mbit/s
//! Identical setup (left) and the Diverse setup (right).
//!
//! For each κ ∈ {1..5} the paper sweeps μ from κ to 5 and plots the
//! model's optimal rate (Theorem 4) against the rate ReMICSS achieves
//! with its dynamic share schedule. Identical channels give a smooth
//! `total/μ` curve (Corollary 1); Diverse channels show a bump at every
//! μ where another channel stops being fully utilizable.
//!
//! The sweep is evaluated by the parallel grid runner
//! ([`crate::sweep::map_ordered`]); every point derives its RNG seed
//! from its own grid coordinates ([`seed`]), so output is bit-identical
//! for any worker count — pinned by `tests/parallel_regression.rs`.

use std::time::Instant;

use mcss::prelude::*;

use crate::report::BenchReport;
use crate::sweep::{self, Timed};
use crate::{mbps, run_session, Mode, Row};

/// One `(κ, μ)` grid point of a panel sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Integer κ (the paper sweeps κ ∈ {1..n}).
    pub kappa_i: usize,
    /// Mean multiplicity μ ∈ [κ, n].
    pub mu: f64,
}

/// The figure's grid: for each κ ∈ {1..n}, μ from κ to n in the mode's
/// step.
#[must_use]
pub fn grid(n: usize, mode: Mode) -> Vec<GridPoint> {
    let mut points = Vec::new();
    for kappa_i in 1..=n {
        let mut mu = kappa_i as f64;
        while mu <= n as f64 + 1e-9 {
            points.push(GridPoint { kappa_i, mu });
            mu += mode.mu_step();
        }
    }
    points
}

/// The per-point RNG seed, a pure function of the grid coordinates —
/// this is what makes evaluation order (and thread count) irrelevant.
#[must_use]
pub fn seed(kappa_i: usize, mu: f64) -> u64 {
    0xF163 ^ (kappa_i as u64) << 8 ^ ((mu * 10.0) as u64)
}

/// Evaluates one grid point: one simulated session at the optimal rate.
fn eval(channels: &ChannelSet, mode: Mode, name: &str, point: GridPoint) -> Row {
    let GridPoint { kappa_i, mu } = point;
    let config = ProtocolConfig::new(kappa_i as f64, mu).expect("valid parameters");
    let opt_symbols = testbed::optimal_symbol_rate(channels, &config).expect("valid mu");
    // Offer exactly the optimal rate. The paper overdrives with
    // iperf at 1 Gbit/s and lets the sender *block* on epoll; our
    // best-effort queues would instead shed redundant shares,
    // which lets low-k symbols complete above R_C. Driving at
    // R_C applies the same backpressure without the shedding.
    let report = run_session(
        channels,
        config.clone(),
        Workload::cbr(opt_symbols, mode.duration()),
        seed(kappa_i, mu),
        None,
    );
    Row {
        label: format!("{name}/k{kappa_i}"),
        x: mu,
        optimal: testbed::payload_bps(opt_symbols, &config),
        actual: report.achieved_payload_bps,
    }
}

/// Evaluates a list of grid points on `threads` workers, returning rows
/// in grid order with per-point timings. No printing — this is the
/// surface the serial-vs-parallel regression test drives.
#[must_use]
pub fn eval_points(
    name: &str,
    channels: &ChannelSet,
    mode: Mode,
    points: &[GridPoint],
    threads: usize,
) -> Vec<Timed<Row>> {
    sweep::map_ordered(points, threads, |&p| eval(channels, mode, name, p))
}

/// Runs one setup's sweep on `threads` workers and prints the table.
#[must_use]
pub fn sweep_timed(
    name: &str,
    channels: &ChannelSet,
    mode: Mode,
    threads: usize,
) -> Vec<Timed<Row>> {
    println!("\n=== Figure 3 ({name} setup): rate vs optimal ===");
    println!(
        "{:>5} {:>5} {:>12} {:>12} {:>8}",
        "kappa", "mu", "optimal Mbps", "actual Mbps", "ratio"
    );
    let points = grid(channels.len(), mode);
    let rows = eval_points(name, channels, mode, &points, threads);
    for (point, row) in points.iter().zip(&rows) {
        println!(
            "{:>5.1} {:>5.1} {:>12.2} {:>12.2} {:>8.3}",
            point.kappa_i as f64,
            point.mu,
            mbps(row.value.optimal),
            mbps(row.value.actual),
            row.value.ratio()
        );
    }
    rows
}

/// Runs one setup's sweep. Returns a row per (κ, μ) point with payload
/// rates in Mbit/s.
pub fn sweep(name: &str, channels: &ChannelSet, mode: Mode) -> Vec<Row> {
    sweep_timed(name, channels, mode, sweep::default_threads())
        .into_iter()
        .map(|t| t.value)
        .collect()
}

/// Runs both Figure 3 panels.
pub fn run(mode: Mode) -> Vec<Row> {
    let threads = sweep::default_threads();
    let start = Instant::now();
    let mut timed = sweep_timed("Identical-100", &setups::identical(100.0), mode, threads);
    timed.extend(sweep_timed("Diverse", &setups::diverse(), mode, threads));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let rows: Vec<Row> = timed.iter().map(|t| t.value.clone()).collect();
    summarize(&rows);
    BenchReport::new("fig3", mode.label(), threads, wall, &timed).emit();
    rows
}

fn summarize(rows: &[Row]) {
    let worst = rows.iter().map(|r| r.ratio()).fold(f64::INFINITY, f64::min);
    let mean: f64 = rows.iter().map(Row::ratio).sum::<f64>() / rows.len() as f64;
    println!(
        "\nacross {} points: mean achieved/optimal = {mean:.3}, worst = {worst:.3}",
        rows.len()
    );
    println!("(paper: within 3% of optimal on Identical, 4% on Diverse)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_setup_tracks_optimal_closely() {
        let rows = sweep("Identical-100", &setups::identical(100.0), Mode::Quick);
        for r in &rows {
            assert!(
                r.ratio() > 0.90,
                "{} mu={}: ratio {:.3}",
                r.label,
                r.x,
                r.ratio()
            );
            assert!(r.ratio() < 1.005, "actual exceeded optimal at mu={}", r.x);
        }
    }

    #[test]
    fn diverse_setup_shape() {
        let rows = sweep("Diverse", &setups::diverse(), Mode::Quick);
        // Optimal rate decreases in mu for each kappa band.
        for k in 1..=5 {
            let band: Vec<&Row> = rows
                .iter()
                .filter(|r| r.label.ends_with(&format!("k{k}")))
                .collect();
            for pair in band.windows(2) {
                assert!(
                    pair[1].optimal <= pair[0].optimal + 1e-9,
                    "optimal must fall with mu"
                );
            }
        }
        // Achieved stays within a reasonable band of optimal.
        let mean: f64 = rows.iter().map(Row::ratio).sum::<f64>() / rows.len() as f64;
        assert!(mean > 0.85, "mean ratio {mean}");
    }

    #[test]
    fn grid_matches_serial_nesting() {
        let points = grid(5, Mode::Quick);
        // Same (κ, μ) enumeration the pre-parallel serial loop produced.
        let mut expect = Vec::new();
        for kappa_i in 1..=5usize {
            let mut mu = kappa_i as f64;
            while mu <= 5.0 + 1e-9 {
                expect.push((kappa_i, mu));
                mu += Mode::Quick.mu_step();
            }
        }
        let got: Vec<(usize, f64)> = points.iter().map(|p| (p.kappa_i, p.mu)).collect();
        assert_eq!(got, expect);
    }
}
