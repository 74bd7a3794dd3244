//! Telemetry introspection: run one second of ReMICSS traffic over the
//! paper's Lossy setup and dump everything the `mcss-obs` layer saw —
//! the protocol metrics of the session's host, a host of one
//! (per-channel share counters, one-way delay and inter-share-gap
//! histograms, empirical `(κ, μ)`, reassembly residency, pool hit
//! rates) plus the global span registry (Shamir
//! kernel, event-queue, and scheduler timings) — as pretty JSON and
//! Prometheus text exposition.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p mcss --example mcss-obs-dump
//! ```
//!
//! The snapshot is also written to `METRICS_mcss_obs_dump.json` (in
//! `MCSS_BENCH_DIR` if set, else the current directory).

use std::sync::Arc;

use mcss::model::setups;
use mcss::netsim::{SimTime, Simulator};
use mcss::obs;
use mcss::remicss::config::ProtocolConfig;
use mcss::remicss::session::{Session, Workload};
use mcss::remicss::testbed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One second of protocol traffic at half the model-optimal rate over
    // the paper's Lossy setup, κ = 2, μ = 3.
    let channels = setups::lossy();
    let config = Arc::new(ProtocolConfig::new(2.0, 3.0)?);
    let network = testbed::network_for(&channels, &config);
    let rate = 0.5 * testbed::optimal_symbol_rate(&channels, &config)?;
    let horizon = SimTime::from_secs(1);
    let session = Session::new(
        Arc::clone(&config),
        channels.len(),
        Workload::cbr(rate, horizon),
    )?;
    let mut sim = Simulator::new(network, session, 42);
    sim.run_until(SimTime::from_secs(2));
    let report = sim.app().report(horizon);
    println!(
        "ran {} channels for 1 s: {} symbols delivered, loss {:.3}%\n",
        channels.len(),
        report.delivered_symbols,
        100.0 * report.loss_fraction
    );

    // Session metrics (protocol counters + histograms, pool and
    // reassembly counters) merged with the global span registry.
    let mut snapshot = sim.app().metrics_snapshot();
    snapshot.merge(obs::global_snapshot());

    let metrics = sim.app().metrics();
    println!(
        "empirical κ = {:.3}, μ = {:.3} over {} scheduler draws",
        metrics.empirical_kappa(),
        metrics.empirical_mu(),
        metrics.choices()
    );
    println!(
        "shares: {} sent, {} received, {} dropped at send queues",
        metrics.shares_sent_total(),
        metrics.shares_received_total(),
        metrics.shares_dropped_total()
    );

    println!("\n=== JSON ===");
    let json = serde_json::to_string_pretty(&snapshot)?;
    println!("{json}");

    println!("\n=== Prometheus text exposition ===");
    print!("{}", snapshot.to_prometheus());

    let dir = std::env::var("MCSS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::PathBuf::from(dir).join("METRICS_mcss_obs_dump.json");
    std::fs::write(&path, json + "\n")?;
    println!("\nwrote {}", path.display());
    Ok(())
}
