//! Exhaustive bucket-boundary checks and a randomized percentile
//! comparison against a sorted-vector reference quantile.

#![cfg(feature = "telemetry")]

use mcss_obs::{bucket_bounds, bucket_index, Histogram, BUCKETS, SUB_BUCKETS};
use proptest::prelude::*;

/// Every bucket's lower edge maps back to its own index, its last
/// representable value stays inside, and consecutive buckets tile the
/// `u64` range with no gaps or overlaps.
#[test]
fn bucket_edges_round_trip_exhaustively() {
    let mut prev_upper = 0u64;
    for i in 0..BUCKETS {
        let (lower, upper) = bucket_bounds(i);
        assert_eq!(lower, prev_upper, "bucket {i} leaves a gap");
        assert!(upper > lower, "bucket {i} is empty");
        assert_eq!(bucket_index(lower), i, "lower edge of bucket {i}");
        let last = if i == BUCKETS - 1 {
            u64::MAX
        } else {
            upper - 1
        };
        assert_eq!(bucket_index(last), i, "last value of bucket {i}");
        prev_upper = upper;
    }
    assert_eq!(prev_upper, u64::MAX, "buckets must cover the u64 range");
}

/// Values one past each boundary land in the next bucket.
#[test]
fn boundary_neighbors_split_buckets() {
    for i in 0..BUCKETS - 1 {
        let (_, upper) = bucket_bounds(i);
        assert_eq!(bucket_index(upper), i + 1, "upper edge of bucket {i}");
    }
}

/// The relative width of every bucket past the linear range is at most
/// 1/SUB_BUCKETS — the histogram's accuracy contract.
#[test]
fn bucket_relative_width_is_bounded() {
    for i in SUB_BUCKETS..BUCKETS - 1 {
        let (lower, upper) = bucket_bounds(i);
        let width = upper - lower;
        assert!(
            (width as f64) / (lower as f64) <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
            "bucket {i}: width {width} lower {lower}"
        );
    }
}

/// Reference quantile: nearest-rank on a sorted copy.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The histogram's interpolated percentile must agree with the sorted
/// reference to within one bucket width of the reference value.
fn assert_percentile_close(samples: &[u64], q: f64) {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let expect = reference_quantile(&sorted, q);
    let got = h.percentile(q);
    let (lo, hi) = bucket_bounds(bucket_index(expect));
    assert!(
        got >= lo as f64 && got <= hi as f64,
        "q={q}: got {got}, reference {expect} in bucket [{lo}, {hi}]"
    );
}

proptest! {
    #[test]
    fn percentile_matches_sorted_reference(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..500),
        q in 0.01f64..1.0,
    ) {
        assert_percentile_close(&samples, q);
    }

    #[test]
    fn percentile_handles_heavy_ties(
        value in 0u64..1_000_000,
        n in 1usize..200,
        q in 0.01f64..1.0,
    ) {
        let samples = vec![value; n];
        assert_percentile_close(&samples, q);
    }

    /// Absorbing is indistinguishable from having recorded the other
    /// histogram's samples here — including when either side is empty.
    #[test]
    fn absorb_equals_recording_both_sets(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..300),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..300),
    ) {
        let (left, right, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            left.record(v);
            both.record(v);
        }
        for &v in &b {
            right.record(v);
            both.record(v);
        }
        left.absorb(&right);
        prop_assert_eq!(left.count(), both.count());
        prop_assert_eq!(left.min(), both.min());
        prop_assert_eq!(left.max(), both.max());
        prop_assert_eq!(left.mean(), both.mean());
        for q in [0.50, 0.90, 0.99, 0.999] {
            prop_assert_eq!(left.percentile(q), both.percentile(q), "q={}", q);
        }
    }

    #[test]
    fn bucket_index_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        if a <= b {
            prop_assert!(bucket_index(a) <= bucket_index(b));
        } else {
            prop_assert!(bucket_index(a) >= bucket_index(b));
        }
    }
}

/// Spot-check the canonical latency quantiles on a known distribution.
#[test]
fn uniform_distribution_quantiles() {
    let h = Histogram::new();
    for v in 1..=100_000u64 {
        h.record(v);
    }
    for (q, expect) in [(0.50, 50_000.0), (0.90, 90_000.0), (0.99, 99_000.0)] {
        let got = h.percentile(q);
        let rel = (got - expect).abs() / expect;
        assert!(rel <= 1.0 / SUB_BUCKETS as f64, "q={q}: got {got}");
    }
}
