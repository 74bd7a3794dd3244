//! Self-tuning stream over a degrading network — on real sockets.
//!
//! A long-running stream starts on five clean loopback UDP channels
//! with minimal redundancy (`μ = κ = 1`, maximum rate). Partway in, the
//! network degrades badly: every channel starts dropping 25% of its
//! datagrams. The adaptive controller notices through receiver feedback
//! (control frames riding the same sockets) and walks `μ` up until the
//! loss target holds again — trading rate for reliability exactly along
//! the tradeoff curve the model describes, with no operator in the
//! loop. This is the same controller the simulator exercises, hosted
//! by a [`UdpServer`]; only the driver changed.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p mcss-server --release --example resilient_stream
//! ```

use std::time::{Duration, Instant};

use mcss_base::SimTime;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_server::{ServerConfig, UdpServer};

const CHANNELS: usize = 5;
const SYMBOL_BYTES: usize = 256;
const TARGET_LOSS: f64 = 0.01;
const LOSS: f64 = 0.25;
const CLEAN_MILLIS: u64 = 1_000;
const DEGRADED_MILLIS: u64 = 3_000;
const TICK: Duration = Duration::from_millis(100);
const SYMBOLS_PER_TICK: usize = 40;
const CID: u32 = 1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ProtocolConfig::new(1.0, 1.0)?
        .with_symbol_bytes(SYMBOL_BYTES)
        .with_adaptive(TARGET_LOSS);
    let mut server = UdpServer::new(ServerConfig::with_shards(1), config, CHANNELS)?;
    server.add_session(CID, SourceMode::External, 2026)?;

    println!("adaptive stream: {CHANNELS} loopback UDP channels, target loss {TARGET_LOSS}");
    println!(
        "degradation strikes at t = {:.1}s: every channel drops {:.0}% of datagrams\n",
        CLEAN_MILLIS as f64 / 1e3,
        LOSS * 100.0
    );
    println!(
        "{:>8} {:>8} {:>12} {:>14}",
        "t (ms)", "mu", "loss so far", "adjustments"
    );

    let start = Instant::now();
    let total = Duration::from_millis(CLEAN_MILLIS + DEGRADED_MILLIS);
    let mut degraded = false;
    let mut next_print = Duration::from_millis(500);
    let mut sent = 0usize;
    while start.elapsed() < total {
        if !degraded && start.elapsed() >= Duration::from_millis(CLEAN_MILLIS) {
            for ch in 0..CHANNELS {
                server.set_loss(ch, LOSS);
            }
            degraded = true;
            println!("  -- all channels degraded to {:.0}% loss --", LOSS * 100.0);
        }
        for i in 0..SYMBOLS_PER_TICK {
            let payload = vec![(sent + i) as u8; SYMBOL_BYTES];
            server.offer_symbol(CID, &payload);
        }
        sent += SYMBOLS_PER_TICK;
        server.run_for(TICK)?;
        while let Some((_, payload)) = server.pop_delivered(CID) {
            server.recycle_delivered(CID, payload);
        }

        if start.elapsed() >= next_print {
            let report = server.shards().report(CID, since(start));
            println!(
                "{:>8} {:>8.2} {:>12.4} {:>14}",
                next_print.as_millis(),
                report.adaptive_final_mu.expect("adaptation enabled"),
                report.loss_fraction,
                report.adaptive_adjustments
            );
            next_print += Duration::from_millis(500);
        }
    }
    // Let the tail of the stream and the last feedback epochs land.
    server.run_for(Duration::from_millis(200))?;
    while let Some((_, payload)) = server.pop_delivered(CID) {
        server.recycle_delivered(CID, payload);
    }

    let report = server.shards().report(CID, since(start));
    println!("\nfinal report:");
    println!(
        "  sent {} symbols, delivered (eventually) {:.2}%",
        report.sent_symbols,
        100.0 * (1.0 - report.loss_fraction)
    );
    let final_mu = report.adaptive_final_mu.expect("adaptation enabled");
    println!(
        "  final mu = {final_mu:.2} (started at 1.00, {} adjustments)",
        report.adaptive_adjustments
    );

    // What the model says the controller should have found: with 25%
    // loss per channel and kappa = 1, the loss target needs mu where
    // 0.25^mu <= 0.01, i.e. mu >= log(0.01)/log(0.25) ~ 3.3.
    let needed = TARGET_LOSS.ln() / LOSS.ln();
    println!("  model check: {LOSS}^mu <= {TARGET_LOSS} needs mu >= {needed:.1}");
    assert!(
        final_mu >= needed - 1.0,
        "controller settled too low: {final_mu:.2} vs needed ~{needed:.1}"
    );
    println!("  controller settled consistently with the model's prediction");
    Ok(())
}

/// Wall time since `start`, as engine time.
fn since(start: Instant) -> SimTime {
    SimTime::from_nanos(start.elapsed().as_nanos() as u64)
}
