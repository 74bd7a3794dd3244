//! End-to-end loopback run of the [`UdpDriver`]: move 1 MiB from host A
//! to host B across real UDP sockets on ≥ 4 channels, reconstruct every
//! symbol, and verify the engine's accounting saw no reassembly errors.

#![cfg(feature = "udp")]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::udp::UdpDriver;

const CHANNELS: usize = 4;
const SYMBOL_BYTES: usize = 1024;
const TOTAL_BYTES: usize = 1 << 20; // 1 MiB
const SYMBOLS: usize = TOTAL_BYTES / SYMBOL_BYTES;

fn payload_byte(i: usize) -> u8 {
    (i.wrapping_mul(131).wrapping_add(i >> 10) & 0xff) as u8
}

#[test]
fn one_mebibyte_crosses_four_loopback_channels() {
    let config = ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_symbol_bytes(SYMBOL_BYTES);
    let mut driver = UdpDriver::new(config, CHANNELS, 0xDA7A).unwrap();

    let data: Vec<u8> = (0..TOTAL_BYTES).map(payload_byte).collect();
    let mut received: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(45);

    for chunk in data.chunks(SYMBOL_BYTES) {
        driver.send_symbol(chunk).unwrap();
        // Drain as we go so socket buffers never overflow.
        driver.poll().unwrap();
        while let Some((seq, payload)) = driver.next_symbol() {
            received.insert(seq, payload);
        }
    }
    while received.len() < SYMBOLS && Instant::now() < deadline {
        driver.drive(Duration::from_millis(5)).unwrap();
        while let Some((seq, payload)) = driver.next_symbol() {
            received.insert(seq, payload);
        }
    }

    assert_eq!(received.len(), SYMBOLS, "not every symbol reconstructed");
    let mut reassembled = Vec::with_capacity(TOTAL_BYTES);
    for (expect_seq, (seq, payload)) in received.into_iter().enumerate() {
        assert_eq!(seq, expect_seq as u64, "sequence gap");
        reassembled.extend_from_slice(&payload);
    }
    assert_eq!(reassembled, data, "reconstructed bytes differ");

    let report = driver.report(driver.now());
    assert_eq!(report.sent_symbols, SYMBOLS as u64);
    assert_eq!(report.delivered_symbols, SYMBOLS as u64);
    assert_eq!(report.wire_errors, 0);
    assert_eq!(report.corrupted_symbols, 0);
    assert_eq!(report.reassembly.timeout_evictions, 0);
    assert_eq!(report.reassembly.memory_evictions, 0);
    assert_eq!(report.reassembly.completed, SYMBOLS as u64);

    // The telemetry snapshot reports the run under `remicss.*` names.
    let snap = driver.engine().metrics_snapshot();
    let resolved = snap
        .counters
        .iter()
        .find(|c| c.name == "remicss.symbols.resolved")
        .expect("resolved counter present");
    assert_eq!(resolved.value, SYMBOLS as u64);
}

#[test]
fn injected_share_loss_is_masked_by_redundancy() {
    // κ = 2, μ = 3 over four channels: one lost share per symbol is
    // absorbed. Inject 30% loss on one channel and expect (almost)
    // everything through; the paper's whole point is that the threshold
    // scheme rides out single-channel trouble without retransmission.
    let config = ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_symbol_bytes(256);
    let mut driver = UdpDriver::new(config, CHANNELS, 0x10_55).unwrap();
    driver.set_loss(0, 0.3);

    let symbols = 200usize;
    let mut delivered = 0usize;
    for i in 0..symbols {
        let chunk = vec![payload_byte(i); 256];
        driver.send_symbol(&chunk).unwrap();
        driver.poll().unwrap();
        while driver.next_symbol().is_some() {
            delivered += 1;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while delivered < symbols && Instant::now() < deadline {
        driver.drive(Duration::from_millis(5)).unwrap();
        while driver.next_symbol().is_some() {
            delivered += 1;
        }
    }
    // A symbol only dies if ≥ 2 of its 3 shares were lost; with loss on
    // a single channel that requires the 30% coin twice — impossible for
    // m = 3 over distinct channels. Everything must arrive.
    assert_eq!(delivered, symbols, "single-channel loss was not masked");
    let report = driver.report(driver.now());
    assert_eq!(report.wire_errors, 0);
}
