//! Proves the "feature off ⇒ compiled to nothing" half of the overhead
//! contract: with `--no-default-features` every metric type is
//! zero-sized, recording is inert, and nothing ever appears in a
//! snapshot (the counter is *absent*, not merely zero).

#![cfg(not(feature = "telemetry"))]

use mcss_obs::{global, global_snapshot, Counter, Gauge, Histogram, SpanGuard, SpanSite};

#[test]
fn metric_types_are_zero_sized() {
    assert_eq!(std::mem::size_of::<Counter>(), 0);
    assert_eq!(std::mem::size_of::<Gauge>(), 0);
    assert_eq!(std::mem::size_of::<Histogram>(), 0);
    assert_eq!(std::mem::size_of::<SpanSite>(), 0);
    assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
}

#[test]
fn recording_leaves_no_trace_in_snapshots() {
    global().counter("disabled.counter").add(42);
    global().gauge("disabled.gauge").set(-7);
    global().histogram("disabled.hist").record(1_000);
    {
        let _span = mcss_obs::span!("disabled.span");
    }
    let snap = global_snapshot();
    assert!(snap.is_empty(), "stub registry must stay empty");
    assert!(!snap.counters.iter().any(|c| c.name == "disabled.counter"));
    assert!(!snap.histograms.iter().any(|h| h.name == "disabled.span"));
}

#[test]
fn snapshot_machinery_still_serializes() {
    // Report emitters serialize snapshots unconditionally; the empty
    // snapshot must round-trip even without the feature.
    let json = serde_json::to_string(&global_snapshot()).expect("serializes");
    assert!(json.contains("\"counters\":[]"));
    let prom = global_snapshot().to_prometheus();
    assert!(prom.is_empty());
}
