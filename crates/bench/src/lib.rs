//! Experiment harness reproducing every figure of the paper's
//! evaluation (§VI), plus the ablations called out in DESIGN.md.
//!
//! Each figure has a module with a `run` function returning the rows it
//! printed, so the binaries stay thin and the smoke tests can execute
//! reduced sweeps. Binaries (`cargo run -p mcss-bench --release --bin
//! <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig2_packing` | Figure 2 (share packing across rates (3,4,8)) |
//! | `fig3_rate` | Figure 3 (rate vs optimal, Identical and Diverse) |
//! | `fig4_delay` | Figure 4 (delay at max rate, Delayed) |
//! | `fig5_loss` | Figure 5 (loss at max rate, Lossy) |
//! | `fig6_scaling` | Figure 6 (rate scaling, μ = 1) |
//! | `fig7_scaling` | Figure 7 (rate scaling, μ = 5, κ = 1..5) |
//! | `ablation_schedulers` | dynamic vs static vs round-robin |
//! | `ablation_micss` | limited (§IV-E) vs unrestricted schedules |
//! | `ablation_eviction` | reassembly timeout / memory-cap sweep |

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod gf256_kernels;
pub mod report;
pub mod sweep;

use mcss::netsim::{SimTime, Simulator};
use mcss::prelude::*;
use mcss::remicss::cpu::CpuModel;

/// How thorough a sweep to run. `Quick` keeps CI and smoke tests fast;
/// `Full` matches the paper's grid (κ steps of 1, μ steps of 0.1, one
/// minute of traffic per point in spirit — we use one second, which at
/// simulated determinism gives equivalent statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced sweep for smoke tests.
    Quick,
    /// The paper's full grid.
    Full,
}

impl Mode {
    /// Parses `--quick`/`--full` from the process arguments (default
    /// full).
    #[must_use]
    pub fn from_args() -> Mode {
        if std::env::args().any(|a| a == "--quick") {
            Mode::Quick
        } else {
            Mode::Full
        }
    }

    /// μ sweep step.
    #[must_use]
    pub fn mu_step(self) -> f64 {
        match self {
            Mode::Quick => 0.5,
            Mode::Full => 0.1,
        }
    }

    /// Simulated seconds of traffic per measurement point.
    #[must_use]
    pub fn duration(self) -> SimTime {
        match self {
            Mode::Quick => SimTime::from_millis(200),
            Mode::Full => SimTime::from_millis(1000),
        }
    }

    /// Lowercase name used in machine-readable reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }
}

/// Runs one protocol session, its hosts' work charged under `cpu` if
/// given, and returns its report over the workload window.
#[must_use]
pub fn run_session(
    channels: &ChannelSet,
    config: ProtocolConfig,
    workload: Workload,
    seed: u64,
    cpu: Option<CpuModel>,
) -> SessionReport {
    let window = workload.duration();
    let net = testbed::network_for(channels, &config);
    let mut session =
        Session::new(config, channels.len(), workload).expect("valid session parameters");
    if let Some(model) = cpu {
        session = session.with_cpu_model(model);
    }
    let mut sim = Simulator::new(net, session, seed);
    sim.run_until(window + SimTime::from_secs(1));
    sim.app().report(window)
}

/// Formats a bits-per-second value as Mbit/s.
#[must_use]
pub fn mbps(bps: f64) -> f64 {
    bps / 1e6
}

/// A generic numbered row: figure binaries print and also return these
/// so smoke tests can assert on shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (e.g. the setup or κ value).
    pub label: String,
    /// The x coordinate of the figure (μ, channel rate, …).
    pub x: f64,
    /// The model-optimal y value.
    pub optimal: f64,
    /// The measured y value.
    pub actual: f64,
}

impl Row {
    /// `actual / optimal`, or NaN when the optimum is zero.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.actual / self.optimal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parameters() {
        assert!(Mode::Quick.mu_step() > Mode::Full.mu_step());
        assert!(Mode::Quick.duration() < Mode::Full.duration());
    }

    #[test]
    fn row_ratio() {
        let r = Row {
            label: "x".into(),
            x: 1.0,
            optimal: 10.0,
            actual: 9.5,
        };
        assert!((r.ratio() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn run_session_smoke() {
        let channels = setups::identical(50.0);
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run_session(
            &channels,
            config,
            Workload::cbr(offered, SimTime::from_millis(100)),
            1,
            None,
        );
        assert!(r.delivered_symbols > 0);
    }
}
