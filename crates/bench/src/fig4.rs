//! Figure 4: optimal (left) and actual (right) delay at maximum rate on
//! the Delayed setup.
//!
//! The paper measures round-trip times of echoed UDP traffic through the
//! protocol at the maximum-rate operating point and reports RTT/2,
//! against the optimal delay of the §IV-D program. The actual delays are
//! far above optimal — a consequence of the dynamic scheduler — but
//! become well-behaved exactly when at least κ channels are
//! underutilized; both plots are reproduced here as one table.

use std::time::Instant;

use mcss::prelude::*;

use crate::fig3::{grid, GridPoint};
use crate::report::BenchReport;
use crate::sweep;
use crate::{run_session, Mode, Row};

/// The per-point RNG seed, a pure function of the grid coordinates.
#[must_use]
pub fn seed(kappa_i: usize, mu: f64) -> u64 {
    0xF164 ^ (kappa_i as u64) << 7 ^ ((mu * 10.0) as u64)
}

/// Evaluates one grid point: LP-predicted delay vs measured RTT/2.
fn eval(channels: &ChannelSet, mode: Mode, point: GridPoint) -> Row {
    let GridPoint { kappa_i, mu } = point;
    let kappa = kappa_i as f64;
    let config = ProtocolConfig::new(kappa, mu).expect("valid parameters");
    let share_channels = testbed::share_rate_channels(channels, &config).expect("conversion");
    let predicted =
        lp_schedule::optimal_schedule_at_max_rate(&share_channels, kappa, mu, Objective::Delay)
            .expect("feasible program")
            .delay(&share_channels);
    let opt_symbols = testbed::optimal_symbol_rate(channels, &config).expect("valid mu");
    let report = run_session(
        channels,
        config,
        Workload::echo(opt_symbols, mode.duration()),
        seed(kappa_i, mu),
        None,
    );
    // One-way delay = RTT / 2, as the paper computes.
    let actual = report
        .mean_rtt
        .map_or(f64::NAN, |rtt| rtt.as_secs_f64() / 2.0);
    Row {
        label: format!("k{kappa_i}"),
        x: mu,
        optimal: predicted * 1e3,
        actual: actual * 1e3,
    }
}

/// Runs the Figure 4 sweep; `optimal`/`actual` are one-way delays in
/// milliseconds.
pub fn run(mode: Mode) -> Vec<Row> {
    let channels = setups::delayed();
    println!("=== Figure 4: delay at maximum rate (Delayed setup) ===");
    println!(
        "{:>5} {:>5} {:>13} {:>13}",
        "kappa", "mu", "optimal ms", "actual ms"
    );
    let threads = sweep::default_threads();
    let start = Instant::now();
    let points = grid(channels.len(), mode);
    let timed = sweep::map_ordered(&points, threads, |&p| eval(&channels, mode, p));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for (point, row) in points.iter().zip(&timed) {
        println!(
            "{:>5.1} {:>5.1} {:>13.4} {:>13.4}",
            point.kappa_i as f64, point.mu, row.value.optimal, row.value.actual
        );
    }
    println!("\nshape check: actual delay is well above optimal (dynamic scheduling");
    println!("cannot favor fast channels) and becomes well-behaved for each kappa");
    println!("once more than kappa channels are underutilized (large mu).");
    BenchReport::new("fig4", mode.label(), threads, wall, &timed).emit();
    timed.into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_shape_matches_paper() {
        let rows = run(Mode::Quick);
        for r in &rows {
            assert!(
                r.actual.is_finite(),
                "no RTT samples at {} {}",
                r.label,
                r.x
            );
            // Implementation delay should never beat the optimum
            // (tolerance for measurement granularity).
            assert!(
                r.actual >= r.optimal - 0.05,
                "{} mu={}: actual {} below optimal {}",
                r.label,
                r.x,
                r.actual,
                r.optimal
            );
        }
        // Optimal delay at kappa=5, mu=5 is the slowest channel: 12.5 ms.
        let corner = rows
            .iter()
            .find(|r| r.label == "k5" && (r.x - 5.0).abs() < 1e-9)
            .unwrap();
        assert!((corner.optimal - 12.5).abs() < 0.1, "{}", corner.optimal);
        // At kappa = 1, mu = 5 every symbol completes on its fastest
        // share: optimal is the smallest channel delay, 0.25 ms.
        let fast = rows
            .iter()
            .find(|r| r.label == "k1" && (r.x - 5.0).abs() < 1e-9)
            .unwrap();
        assert!((fast.optimal - 0.25).abs() < 0.05, "{}", fast.optimal);
        // At kappa = mu = 1 the max-rate constraint forces singleton use
        // proportional to rate: optimal is the rate-weighted mean delay,
        // (5*2.5 + 20*0.25 + 60*12.5 + 65*5 + 100*0.5)/250 = 4.57 ms.
        let avg = rows
            .iter()
            .find(|r| r.label == "k1" && (r.x - 1.0).abs() < 1e-9)
            .unwrap();
        assert!((avg.optimal - 4.57).abs() < 0.05, "{}", avg.optimal);
    }
}
