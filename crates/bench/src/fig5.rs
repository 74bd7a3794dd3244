//! Figure 5: symbol loss at maximum rate on the Lossy setup.
//!
//! For each `(κ, μ)` the paper drives the protocol at the maximum rate
//! measured in the Figure 3 experiment and reports the datagram loss
//! iperf sees, against the optimal loss computed by the §IV-D linear
//! program (the best loss of any schedule that sustains the optimal
//! rate).

use std::time::Instant;

use mcss::prelude::*;

use crate::fig3::{grid, GridPoint};
use crate::report::BenchReport;
use crate::sweep;
use crate::{run_session, Mode, Row};

/// The per-point RNG seed, a pure function of the grid coordinates.
#[must_use]
pub fn seed(kappa_i: usize, mu: f64) -> u64 {
    0xF155 ^ (kappa_i as u64) << 9 ^ ((mu * 10.0) as u64)
}

/// Evaluates one grid point: LP-predicted loss vs measured loss.
fn eval(channels: &ChannelSet, mode: Mode, point: GridPoint) -> Row {
    let GridPoint { kappa_i, mu } = point;
    let kappa = kappa_i as f64;
    let config = ProtocolConfig::new(kappa, mu).expect("valid parameters");
    let share_channels = testbed::share_rate_channels(channels, &config).expect("conversion");
    let predicted =
        lp_schedule::optimal_schedule_at_max_rate(&share_channels, kappa, mu, Objective::Loss)
            .expect("feasible program")
            .loss(&share_channels);
    let opt_symbols = testbed::optimal_symbol_rate(channels, &config).expect("valid mu");
    let report = run_session(
        channels,
        config,
        Workload::cbr(opt_symbols, mode.duration()),
        seed(kappa_i, mu),
        None,
    );
    Row {
        label: format!("k{kappa_i}"),
        x: mu,
        optimal: predicted,
        actual: report.loss_fraction,
    }
}

/// Runs the Figure 5 sweep; `optimal`/`actual` are loss fractions.
pub fn run(mode: Mode) -> Vec<Row> {
    let channels = setups::lossy();
    println!("=== Figure 5: loss at maximum rate (Lossy setup) ===");
    println!(
        "{:>5} {:>5} {:>13} {:>13}",
        "kappa", "mu", "optimal loss", "actual loss"
    );
    let threads = sweep::default_threads();
    let start = Instant::now();
    let points = grid(channels.len(), mode);
    let timed = sweep::map_ordered(&points, threads, |&p| eval(&channels, mode, p));
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for (point, row) in points.iter().zip(&timed) {
        println!(
            "{:>5.1} {:>5.1} {:>13.5} {:>13.5}",
            point.kappa_i as f64, point.mu, row.value.optimal, row.value.actual
        );
    }
    println!("\nshape check: loss falls as mu - kappa grows (more redundancy);");
    println!("implementation loss can exceed optimal where the dynamic schedule's");
    println!("channel choices interact badly with specific rate proportions (paper");
    println!("notes kappa = 3, mu = 3.8 as a pathological point).");
    BenchReport::new("fig5", mode.label(), threads, wall, &timed).emit();
    timed.into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_curves_have_paper_shape() {
        let rows = run(Mode::Quick);
        // At mu = 5 with kappa = 1 the optimal loss is the product of all
        // channel losses: astronomically small; measured should be ~0.
        let best = rows
            .iter()
            .find(|r| r.label == "k1" && (r.x - 5.0).abs() < 1e-9)
            .unwrap();
        assert!(best.optimal < 1e-8);
        assert!(best.actual < 5e-3, "actual {}", best.actual);
        // At kappa = mu = 5 the optimal loss is 1 - prod(1 - l_i) ~ 7.3%.
        let worst = rows
            .iter()
            .find(|r| r.label == "k5" && (r.x - 5.0).abs() < 1e-9)
            .unwrap();
        assert!((worst.optimal - 0.0729).abs() < 0.002, "{}", worst.optimal);
        // Within each kappa band, optimal loss is non-increasing in mu.
        for k in 1..=5 {
            let band: Vec<&Row> = rows.iter().filter(|r| r.label == format!("k{k}")).collect();
            for pair in band.windows(2) {
                assert!(pair[1].optimal <= pair[0].optimal + 1e-12);
            }
        }
    }

    #[test]
    fn corner_loss_converges_to_subset_formula() {
        // A dedicated long run at kappa = mu = 5 (every share must
        // arrive), long enough that binomial noise is a fraction of the
        // expected 7.3%: ~1000 symbols gives sigma ~ 0.8%.
        use crate::run_session;
        let channels = setups::lossy();
        let config = ProtocolConfig::new(5.0, 5.0).expect("valid");
        let offered = testbed::optimal_symbol_rate(&channels, &config).expect("mu");
        let report = run_session(
            &channels,
            config,
            Workload::cbr(offered, mcss::netsim::SimTime::from_secs(2)),
            0xC0FFEE,
            None,
        );
        let expect = 1.0 - setups::LOSSY_LOSS.iter().map(|l| 1.0 - l).product::<f64>();
        assert!(
            (report.loss_fraction - expect).abs() < 0.033,
            "measured {} expected ~{expect}",
            report.loss_fraction
        );
    }
}
