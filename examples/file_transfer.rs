//! Reliable-enough file transfer without retransmission — over real
//! sockets.
//!
//! The paper's protocol is best-effort: no ACKs, no retransmits, just
//! enough share redundancy that symbol loss stays below target. This
//! example moves a 1 MiB file from host A to host B across four
//! loopback UDP channels through a [`UdpServer`] hosting one
//! external-source session, with 30% injected share loss on one channel
//! the whole way. With `(κ = 2, μ = 4)` each symbol needs any 2 of its
//! ~4 shares, so a single bad channel costs nothing: the file arrives
//! bit-exact with zero retransmissions. The run finishes by printing the
//! server's telemetry snapshot and writing it to
//! `METRICS_file_transfer.json` for dashboards or CI artifacts.
//!
//! Run with:
//!
//! ```sh
//! cargo run -p mcss-server --release --example file_transfer
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcss_base::SimTime;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_server::{ServerConfig, UdpServer};

const CHANNELS: usize = 4;
const SYMBOL_BYTES: usize = 1024;
const KAPPA: f64 = 2.0;
const MU: f64 = 4.0;
const LOSSY_CHANNEL: usize = 2;
const LOSS: f64 = 0.30;
const CID: u32 = 1;
/// Symbols offered between two short runs of the server, so socket
/// buffers never overflow.
const BATCH: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Deterministic pseudo-file.
    let file: Vec<u8> = (0..1_048_576u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let symbols = file.len() / SYMBOL_BYTES;
    println!(
        "transferring {} KiB over {CHANNELS} UDP channels (kappa={KAPPA}, mu={MU}); \
         channel {LOSSY_CHANNEL} drops {:.0}% of its datagrams",
        file.len() / 1024,
        LOSS * 100.0
    );

    let config = ProtocolConfig::new(KAPPA, MU)?.with_symbol_bytes(SYMBOL_BYTES);
    let mut server = UdpServer::new(ServerConfig::with_shards(1), config, CHANNELS)?;
    server.add_session(CID, SourceMode::External, 7)?;
    server.set_loss(LOSSY_CHANNEL, LOSS);

    let start = Instant::now();
    let mut chunks = file.chunks(SYMBOL_BYTES);
    let mut received: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    // Offer a batch, run briefly, collect; once everything is offered,
    // keep running while stragglers land.
    let deadline = Instant::now() + Duration::from_secs(30);
    while received.len() < symbols && Instant::now() < deadline {
        for chunk in chunks.by_ref().take(BATCH) {
            server.offer_symbol(CID, chunk);
        }
        server.run_for(Duration::from_millis(2))?;
        while let Some((seq, payload)) = server.pop_delivered(CID) {
            // Keep a copy; the buffer goes back for the next symbol.
            received.insert(seq, payload.clone());
            server.recycle_delivered(CID, payload);
        }
    }
    let elapsed = start.elapsed();

    let report = server
        .shards()
        .report(CID, SimTime::from_nanos(elapsed.as_nanos() as u64));
    println!(
        "sent {} symbols; receiver reconstructed {}/{symbols} in {elapsed:.2?} ({:.1} MiB/s)",
        report.sent_symbols,
        received.len(),
        file.len() as f64 / (1 << 20) as f64 / elapsed.as_secs_f64()
    );
    let totals = server.shards().totals();
    println!(
        "reassembly: {} completed, {} timed out, {} stale shares; \
         {} shares dropped on channel {LOSSY_CHANNEL}, {} refused by the kernel",
        report.reassembly.completed,
        report.reassembly.timeout_evictions,
        report.reassembly.stale,
        totals.injected_drops,
        totals.send_drops
    );

    // Stitch the file back together and verify integrity.
    let mut rebuilt = Vec::with_capacity(file.len());
    for (expect, (seq, data)) in received.iter().enumerate() {
        assert_eq!(*seq, expect as u64, "missing symbol {expect}");
        rebuilt.extend_from_slice(data);
    }
    assert_eq!(rebuilt, file, "file corrupted in transit");
    println!("integrity check passed: transfer is bit-exact, zero retransmissions");

    // What the model says: a symbol dies only if fewer than κ = 2 of its
    // shares survive. With m ≈ 4 shares on distinct channels and only
    // one channel at p = 0.3, at most one share per symbol is ever at
    // risk — symbol loss probability is exactly zero.
    println!(
        "model check: m - k = {:.0} spare shares per symbol masks any \
         single channel at p = {LOSS}",
        report.mean_m - report.mean_k
    );

    // Export the server's telemetry snapshot: Prometheus text to stdout,
    // JSON to disk for CI artifact upload.
    let snapshot = server.metrics_snapshot();
    println!(
        "\ntelemetry snapshot ({} counters):",
        snapshot.counters.len()
    );
    print!("{}", snapshot.to_prometheus());
    let json = serde_json::to_string_pretty(&snapshot)?;
    std::fs::write("METRICS_file_transfer.json", &json)?;
    println!("\nwrote METRICS_file_transfer.json ({} bytes)", json.len());
    Ok(())
}
