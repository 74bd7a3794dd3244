//! Ablations for the design choices DESIGN.md calls out: the dynamic
//! scheduler simplification (§V), the MICSS-compatible schedule
//! limitation (§IV-E), and the reassembly eviction policy (§V).

use std::time::Instant;

use mcss::prelude::*;

use crate::report::BenchReport;
use crate::sweep::Timed;
use crate::{mbps, run_session, Mode, Row};

/// Emits a machine-readable report for a serial ablation sweep.
fn emit(id: &str, mode: &str, start: Instant, timed: &[Timed<Row>]) {
    let wall = start.elapsed().as_secs_f64() * 1e3;
    BenchReport::new(id, mode, 1, wall, timed).emit();
}

/// Ablation 1 — scheduler comparison: dynamic (paper) vs static §IV-D LP
/// vs round-robin, on every setup at `κ = 2, μ = 3`, driven at the
/// optimal rate. Returns a row per (setup, scheduler) with achieved
/// Mbit/s in `actual`.
pub fn schedulers(mode: Mode) -> Vec<Row> {
    println!("=== Ablation: share scheduler (kappa = 2, mu = 3, at optimal rate) ===");
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>10} {:>10}",
        "setup", "scheduler", "optimal Mbps", "actual Mbps", "loss", "delay ms"
    );
    let setups: Vec<(&str, ChannelSet)> = vec![
        ("identical", setups::identical(100.0)),
        ("diverse", setups::diverse()),
        ("lossy", setups::lossy()),
        ("delayed", setups::delayed()),
    ];
    let sweep_start = Instant::now();
    let mut timed: Vec<Timed<Row>> = Vec::new();
    for (name, channels) in &setups {
        let base = ProtocolConfig::new(2.0, 3.0).expect("valid");
        let share_channels = testbed::share_rate_channels(channels, &base).expect("convert");
        let lp =
            lp_schedule::optimal_schedule_at_max_rate(&share_channels, 2.0, 3.0, Objective::Loss)
                .expect("feasible");
        let kinds: Vec<(&str, SchedulerKind)> = vec![
            ("dynamic", SchedulerKind::Dynamic),
            ("static-lp", SchedulerKind::Static(std::sync::Arc::new(lp))),
            ("round-robin", SchedulerKind::RoundRobin),
        ];
        for (kname, kind) in kinds {
            let point_start = Instant::now();
            let config = base.clone().with_scheduler(kind);
            let opt_symbols = testbed::optimal_symbol_rate(channels, &config).expect("valid mu");
            let report = run_session(
                channels,
                config.clone(),
                Workload::cbr(opt_symbols, mode.duration()),
                0xAB1 ^ kname.len() as u64,
            );
            let optimal = testbed::payload_bps(opt_symbols, &config);
            println!(
                "{name:<12} {kname:<12} {:>12.2} {:>12.2} {:>10.5} {:>10.3}",
                mbps(optimal),
                mbps(report.achieved_payload_bps),
                report.loss_fraction,
                report
                    .mean_one_way_delay
                    .map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
            );
            timed.push(Timed {
                value: Row {
                    label: format!("{name}/{kname}"),
                    x: 0.0,
                    optimal,
                    actual: report.achieved_payload_bps,
                },
                millis: point_start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    println!("\nreading: dynamic reaches the highest rate on every setup. The static");
    println!("loss-optimal LP schedule trails it in rate and adds delay everywhere; its");
    println!("loss is at most dynamic's on identical and lossy but higher on diverse and");
    println!("delayed, where dynamic loses nothing. Round-robin wastes rate on diverse");
    println!("channels because it ignores per-channel capacity.");
    emit("ablation_schedulers", mode.label(), sweep_start, &timed);
    timed.into_iter().map(|t| t.value).collect()
}

/// Ablation 2 — MICSS-compatible limited schedules (§IV-E): the
/// privacy/loss/delay penalty of restricting to `𝓜'`, across a (κ, μ)
/// grid on the Lossy and Delayed setups. Returns rows with the
/// unrestricted optimum in `optimal` and the limited optimum in
/// `actual` (same objective).
pub fn micss_limitation() -> Vec<Row> {
    println!("=== Ablation: MICSS-compatible (limited) vs unrestricted schedules ===");
    println!(
        "{:<9} {:<8} {:>5} {:>5} {:>13} {:>13} {:>8}",
        "setup", "objective", "kappa", "mu", "unrestricted", "limited", "penalty"
    );
    let cases: Vec<(&str, ChannelSet, Objective)> = vec![
        ("lossy", setups::lossy(), Objective::Loss),
        ("delayed", setups::delayed(), Objective::Delay),
        (
            "risky",
            setups::diverse_with_risk(&[0.5, 0.3, 0.2, 0.4, 0.1]),
            Objective::Privacy,
        ),
    ];
    let sweep_start = Instant::now();
    let mut timed: Vec<Timed<Row>> = Vec::new();
    for (name, channels, objective) in &cases {
        for &(kappa, mu) in &[(1.5, 3.0), (2.0, 3.0), (2.5, 4.0), (3.5, 4.5)] {
            let point_start = Instant::now();
            let free =
                lp_schedule::optimal_schedule(channels, kappa, mu, *objective).expect("feasible");
            let limited = micss::optimal_limited_schedule(channels, kappa, mu, *objective)
                .expect("feasible by Theorem 5");
            let value = |s: &ShareSchedule| match objective {
                Objective::Privacy => s.risk(channels),
                Objective::Loss => s.loss(channels),
                Objective::Delay => s.delay(channels),
            };
            let (vf, vl) = (value(&free), value(&limited));
            let penalty = if vf > 0.0 { vl / vf } else { 1.0 };
            println!(
                "{name:<9} {objective:<8} {kappa:>5.1} {mu:>5.1} {vf:>13.6} {vl:>13.6} {penalty:>7.2}x"
            );
            timed.push(Timed {
                value: Row {
                    label: format!("{name}/{objective}/{kappa}/{mu}"),
                    x: mu,
                    optimal: vf,
                    actual: vl,
                },
                millis: point_start.elapsed().as_secs_f64() * 1e3,
            });
        }
    }
    println!("\nreading: the hard floor guarantee of the MICSS threat model costs");
    println!("nothing in rate (Theorem 4) but can cost in the optimized property —");
    println!("the paper's section IV-E counterexample generalizes.");
    emit("ablation_micss", "model", sweep_start, &timed);
    timed.into_iter().map(|t| t.value).collect()
}

/// Ablation 3 — reassembly eviction: sweep the timeout on the Delayed
/// setup at `κ = μ = 5` (every symbol needs the 12.5 ms channel) and
/// report delivered fraction. Returns rows with the timeout in `x` (ms)
/// and delivered fraction in `actual`.
pub fn eviction(mode: Mode) -> Vec<Row> {
    println!("=== Ablation: reassembly eviction timeout (Delayed, kappa = mu = 5) ===");
    println!(
        "{:>12} {:>12} {:>14}",
        "timeout ms", "delivered", "evictions"
    );
    let channels = setups::delayed();
    let sweep_start = Instant::now();
    let mut timed: Vec<Timed<Row>> = Vec::new();
    for &timeout_ms in &[1u64, 2, 5, 10, 13, 20, 50, 200] {
        let point_start = Instant::now();
        let config = ProtocolConfig::new(5.0, 5.0)
            .expect("valid")
            .with_reassembly_timeout(mcss::netsim::SimTime::from_millis(timeout_ms));
        let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).expect("mu");
        let report = run_session(
            &channels,
            config,
            Workload::cbr(offered, mode.duration()),
            0xAB3 ^ timeout_ms,
        );
        let delivered = 1.0 - report.loss_fraction;
        println!(
            "{timeout_ms:>12} {delivered:>12.4} {:>14}",
            report.reassembly.timeout_evictions
        );
        timed.push(Timed {
            value: Row {
                label: "eviction".into(),
                x: timeout_ms as f64,
                optimal: 1.0,
                actual: delivered,
            },
            millis: point_start.elapsed().as_secs_f64() * 1e3,
        });
    }
    println!("\nreading: timeouts below the slowest needed channel (12.5 ms) evict");
    println!("nearly everything; above it, they only bound memory, costing nothing.");
    emit("ablation_eviction", mode.label(), sweep_start, &timed);
    timed.into_iter().map(|t| t.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micss_limitation_never_negative_penalty() {
        for r in micss_limitation() {
            assert!(
                r.actual >= r.optimal - 1e-9,
                "limited beat unrestricted at {}",
                r.label
            );
        }
    }

    #[test]
    fn eviction_cliff_at_slowest_channel() {
        let rows = eviction(Mode::Quick);
        let at = |ms: f64| rows.iter().find(|r| (r.x - ms).abs() < 1e-9).unwrap();
        assert!(at(1.0).actual < 0.2, "1 ms timeout should evict nearly all");
        assert!(at(50.0).actual > 0.99, "50 ms timeout should deliver all");
    }

    #[test]
    fn schedulers_smoke() {
        let rows = schedulers(Mode::Quick);
        assert_eq!(rows.len(), 12);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .map(|r| r.actual)
                .unwrap()
        };
        // The rate half of the printed reading: dynamic is never below
        // the static LP schedule, and beats round-robin on diverse
        // channels.
        for setup in ["identical", "diverse", "lossy", "delayed"] {
            let dynamic = get(&format!("{setup}/dynamic"));
            let lp = get(&format!("{setup}/static-lp"));
            assert!(dynamic >= lp, "{setup}: dynamic {dynamic} < static-lp {lp}");
        }
        assert!(get("diverse/dynamic") > get("diverse/round-robin"));
    }
}
