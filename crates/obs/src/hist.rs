//! Log₂-bucketed HDR-style histograms.
//!
//! Values (typically nanoseconds) land in buckets whose width grows
//! with magnitude: 32 linear sub-buckets per power-of-two octave, so
//! every recorded value is representable with relative error at most
//! 1/32 ≈ 3.1% (values below 32 are exact). Storage is a fixed
//! preallocated array of relaxed atomics, so recording never allocates
//! and a histogram can be read from any thread while it is written.
//!
//! Who may *write* depends on the recorder. [`Histogram::record`] is
//! safe from any number of threads at once and costs five locked
//! read-modify-writes. [`Histogram::record_single_writer`] is for a
//! histogram with one writer at a time (the thread that owns the
//! structure it describes): plain loads and stores, no locked
//! instruction, readers still see whole and monotone values.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metric::single_writer_store;

/// Linear sub-buckets per octave (power-of-two value range).
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros(); // 5
/// Octave 0 covers `0..SUB_BUCKETS` exactly; octaves `1..OCTAVES`
/// cover the rest of the `u64` range.
const OCTAVES: usize = 64 - SUB_BITS as usize + 1; // 60
/// Total bucket count.
pub const BUCKETS: usize = OCTAVES * SUB_BUCKETS; // 1920

/// The bucket index a value lands in.
#[inline]
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let h = 63 - v.leading_zeros(); // highest set bit, ≥ SUB_BITS
        let octave = (h - SUB_BITS + 1) as usize;
        let sub = ((v >> (h - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
        octave * SUB_BUCKETS + sub
    }
}

/// The `[lower, upper)` value range of bucket `index`. The last
/// bucket's upper bound saturates at `u64::MAX`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index out of range");
    let octave = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    if octave == 0 {
        (sub, sub + 1)
    } else {
        let shift = octave as u32 - 1;
        let lower = (SUB_BUCKETS as u64 + sub) << shift;
        let width = 1u64 << shift;
        (lower, lower.saturating_add(width))
    }
}

/// A fixed-size concurrent histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use mcss_obs::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=100 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.max(), 100);
/// let p50 = h.percentile(0.50);
/// assert!((49.0..=52.0).contains(&p50), "p50 {p50}");
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. Allocates its (fixed) bucket storage up
    /// front; nothing on the record path ever allocates.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample; any number of threads may call this at
    /// once.
    #[inline]
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records one sample into a histogram that has **one writer at
    /// a time**: each cell is loaded, changed and stored back with
    /// no locked instruction, and min and max are stored only when
    /// exceeded. Any thread may read meanwhile. A second concurrent
    /// writer (of either recorder) would lose samples; debug builds
    /// catch one by updating through `compare_exchange`.
    ///
    /// # Panics
    ///
    /// With `debug_assertions`, if another thread wrote a cell
    /// between this call's load and store of it.
    #[inline]
    pub fn record_single_writer(&self, v: u64) {
        let add = |cell: &AtomicU64, n: u64| {
            let old = cell.load(Ordering::Relaxed);
            single_writer_store(cell, old, old.wrapping_add(n));
        };
        add(&self.counts[bucket_index(v)], 1);
        add(&self.count, 1);
        add(&self.sum, v);
        let min = self.min.load(Ordering::Relaxed);
        if v < min {
            single_writer_store(&self.min, min, v);
        }
        let max = self.max.load(Ordering::Relaxed);
        if v > max {
            single_writer_store(&self.max, max, v);
        }
    }

    /// Adds every sample of `other` to this histogram, as if each
    /// had been recorded here: buckets, count and sum add, min and
    /// max fold. Samples recorded into `other` meanwhile may be
    /// partly included.
    pub fn absorb(&self, other: &Histogram) {
        if other.is_empty() {
            return;
        }
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c != 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of samples recorded.
    #[inline]
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Exact largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Exact sum of the samples (wrapping past `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), linearly interpolated within
    /// the bucket holding the rank-⌈q·n⌉ sample and clamped to the
    /// observed `[min, max]` (so p99 never reads above the true
    /// maximum). Exact for values below [`SUB_BUCKETS`]; otherwise
    /// within one bucket width (≤ 1/32 relative) of the true order
    /// statistic. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for i in 0..BUCKETS {
            let c = self.counts[i].load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                let (lower, upper) = bucket_bounds(i);
                let raw = if upper - lower <= 1 {
                    lower as f64
                } else {
                    // Position of the ranked sample among this bucket's
                    // occupants, spread evenly across the bucket's range.
                    let within = (rank - (cum - c)) as f64 / c as f64;
                    lower as f64 + within * (upper - lower) as f64
                };
                return raw.clamp(self.min() as f64, self.max() as f64);
            }
        }
        self.max() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
            assert_eq!(bucket_index(v), v as usize);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn extremes_map_in_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn both_recorders_record_the_same() {
        let (any, single) = (Histogram::new(), Histogram::new());
        for v in [7u64, 0, 1_000_000, 31, 32, u64::MAX >> 1, 7] {
            any.record(v);
            single.record_single_writer(v);
        }
        assert_eq!(single.count(), any.count());
        assert_eq!(single.sum(), any.sum());
        assert_eq!((single.min(), single.max()), (any.min(), any.max()));
        assert_eq!(single.mean(), any.mean());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(single.percentile(q), any.percentile(q), "q {q}");
        }
    }

    #[test]
    fn percentile_within_bucket_tolerance() {
        let h = Histogram::new();
        for v in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        // p99 must land in the top sample's bucket.
        let p99 = h.percentile(0.99);
        let (lo, hi) = bucket_bounds(bucket_index(1_000_000));
        assert!(p99 >= lo as f64 && p99 <= hi as f64, "p99 {p99}");
    }
}
