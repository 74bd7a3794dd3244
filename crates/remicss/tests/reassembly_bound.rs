//! Regression: the reassembly table's memory of resolved symbols must
//! stay flat over unbounded runs. Before the resolution cap, every
//! completed symbol left a record in `resolved` that only a sweep could
//! prune — a session that never swept (or swept rarely against a fast
//! sender) grew without bound.

#![cfg(feature = "sim")]

mod common;

use common::share_bytes;
use mcss_codec::CodecId;
use mcss_netsim::SimTime;
use mcss_remicss::reassembly::{AcceptOutcome, ReassemblyTable};
use mcss_remicss::wire::ShareRef;

#[test]
fn resolved_memory_stays_flat_over_a_million_symbols() {
    let cap = 10_000usize;
    // Huge timeout and no sweeps: only the cap bounds resolution memory.
    let mut t = ReassemblyTable::new(SimTime::from_secs(3_600), 1 << 20).with_resolved_cap(cap);
    let mut out = Vec::new();
    let payload = [0xA5u8; 16];
    for seq in 0..1_000_000u64 {
        let frame = share_bytes(CodecId::Shamir, seq, (1, 1, 1), 0, &payload);
        let share = ShareRef::decode(&frame).unwrap();
        let outcome = t.accept_into(&share, SimTime::from_nanos(seq), &mut out);
        assert_eq!(outcome, AcceptOutcome::Completed);
        if seq % 65_536 == 0 {
            assert!(
                t.resolved_records() <= cap,
                "resolved grew past cap at seq {seq}: {}",
                t.resolved_records()
            );
        }
    }
    assert!(t.resolved_records() <= cap);
    assert_eq!(t.pending_symbols(), 0);
    assert_eq!(t.buffered_bytes(), 0);
    assert_eq!(t.stats().completed, 1_000_000);
    assert_eq!(t.stats().resolved_evictions, 1_000_000 - cap as u64);
}

#[test]
fn share_buffers_stay_flat_across_many_multi_share_symbols() {
    // k = 2 exercises the pending table and the pooled share buffers;
    // after warmup the pool must stop allocating.
    let mut t = ReassemblyTable::new(SimTime::from_secs(3_600), 1 << 20).with_resolved_cap(10_000);
    let mut out = Vec::new();
    let payload = [0x5Au8; 64];
    let mut run = |t: &mut ReassemblyTable, range: std::ops::Range<u64>| {
        for seq in range {
            for x in [1u8, 2u8] {
                let frame = share_bytes(CodecId::Shamir, seq, (2, 2, x), 0, &payload);
                let share = ShareRef::decode(&frame).unwrap();
                t.accept_into(&share, SimTime::from_nanos(seq), &mut out);
            }
        }
    };
    run(&mut t, 0..50_000);
    let warm_misses = t.pool_misses();
    run(&mut t, 50_000..100_000);
    assert_eq!(t.pool_misses(), warm_misses, "pool allocated after warmup");
    assert_eq!(t.stats().completed, 100_000);
    assert_eq!(t.pending_symbols(), 0);
    assert_eq!(t.buffered_bytes(), 0);
}
