//! Figure 6: optimal and achieved rate on the Identical setup as the
//! per-channel rate grows from 100 to 800 Mbit/s, with `κ = μ = 1`.
//!
//! The point of the experiment is to find where the bottleneck stops
//! being the channels: the paper observes the protocol levelling off
//! around 750 Mbit/s aggregate (per-channel capacity ≈ 150 Mbit/s).
//! We reproduce this with the calibrated endpoint CPU model.

use std::time::Instant;

use mcss::prelude::*;
use mcss::remicss::cpu::CpuModel;

use crate::report::BenchReport;
use crate::sweep;
use crate::{mbps, run_session, Mode, Row};

/// The per-channel rates (Mbit/s) the mode sweeps.
#[must_use]
pub fn rates(mode: Mode) -> Vec<u64> {
    let step = match mode {
        Mode::Quick => 100,
        Mode::Full => 25,
    };
    (100..=800).step_by(step).collect()
}

/// Evaluates one rate point at `κ = μ = 1` under the paper CPU model.
fn eval(mode: Mode, rate: u64) -> Row {
    let channels = setups::identical(rate as f64);
    let config = ProtocolConfig::new(1.0, 1.0).expect("valid parameters");
    let opt_symbols = testbed::optimal_symbol_rate(&channels, &config).expect("valid mu");
    let report = run_session(
        &channels,
        config.clone(),
        Workload::cbr(opt_symbols * 1.05, mode.duration()),
        0xF166 ^ rate,
        Some(CpuModel::paper_testbed()),
    );
    Row {
        label: "mu1".into(),
        x: rate as f64,
        optimal: testbed::payload_bps(opt_symbols, &config),
        actual: report.achieved_payload_bps,
    }
}

/// Runs the Figure 6 sweep; `optimal`/`actual` are aggregate payload
/// rates in Mbit/s, `x` is the per-channel rate in Mbit/s.
pub fn run(mode: Mode) -> Vec<Row> {
    println!("=== Figure 6: rate scaling on Identical setup, kappa = mu = 1 ===");
    println!(
        "{:>10} {:>13} {:>13} {:>7}",
        "chan Mbps", "optimal Mbps", "actual Mbps", "ratio"
    );
    let threads = sweep::default_threads();
    let start = Instant::now();
    let points = rates(mode);
    let timed = sweep::map_ordered(&points, threads, |&rate| eval(mode, rate));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for (rate, row) in points.iter().zip(&timed) {
        println!(
            "{rate:>10} {:>13.1} {:>13.1} {:>7.3}",
            mbps(row.value.optimal),
            mbps(row.value.actual),
            row.value.ratio()
        );
    }
    println!("\nshape check: achieved tracks optimal until the endpoint processing");
    println!("bottleneck binds, then levels off near 750 Mbit/s aggregate (paper:");
    println!("\"performance leveling off around 750 Mbps total\").");
    BenchReport::new("fig6", mode.label(), threads, wall, &timed).emit();
    timed.into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_knee_reproduced() {
        let rows = run(Mode::Quick);
        // Below the knee (100 Mbit/s per channel = 500 aggregate wire,
        // under the CPU cap) achieved tracks optimal.
        let low = &rows[0];
        assert!(
            low.ratio() > 0.9,
            "at 100 Mbit/s per channel: ratio {:.3}",
            low.ratio()
        );
        // At the top of the sweep the CPU cap binds: achieved is well
        // below optimal and in the right plateau region.
        let high = rows.last().unwrap();
        assert!(
            high.ratio() < 0.35,
            "saturation missing at 800 Mbit/s: ratio {:.3}",
            high.ratio()
        );
        let plateau = high.actual / 1e6;
        assert!(
            (550.0..950.0).contains(&plateau),
            "plateau at {plateau} Mbit/s, expected near 750"
        );
        // Achieved rate is monotone-ish then flat: the last two points
        // differ by little.
        let prev = &rows[rows.len() - 2];
        let rel = (high.actual - prev.actual).abs() / prev.actual;
        assert!(rel < 0.1, "plateau not flat: {rel:.3}");
    }

    #[test]
    fn rate_grid_matches_serial_loop() {
        assert_eq!(
            rates(Mode::Quick),
            vec![100, 200, 300, 400, 500, 600, 700, 800]
        );
        assert_eq!(rates(Mode::Full).len(), 29);
    }
}
