//! The subset-metric table: every mask's [`MetricRows`] run, computed
//! once and looked up by bitmask, for callers that price the whole entry
//! set of one channel set — an LP cost vector, a `(κ, μ)` grid. It is the
//! per-call formulas' own routine run `2ⁿ − 1` times, so a looked-up value
//! is the per-call value bit for bit (`n · 2ⁿ⁻¹` entries per metric).

use crate::channel::ChannelSet;
use crate::subset::{MetricRows, Subset};

/// `z/l/d(k, M)` of one [`ChannelSet`] for every `1 ≤ k ≤ |M|`.
#[derive(Debug, Clone)]
pub(crate) struct SubsetMetricCache {
    /// Mask `M`'s values for `k = 1..=|M|` live at
    /// `offsets[M]..offsets[M] + |M|` of each metric.
    offsets: Vec<u32>,
    rows: MetricRows,
}

impl SubsetMetricCache {
    pub(crate) fn new(channels: &ChannelSet) -> Self {
        let n = channels.len();
        let mut offsets = Vec::with_capacity(1 << n);
        let mut next = 0u32;
        for mask in 0..1u32 << n {
            offsets.push(next);
            next += mask.count_ones();
        }
        let mut rows = MetricRows::with_capacity(next as usize);
        for m in Subset::all_nonempty(n) {
            rows.push(channels, m);
        }
        SubsetMetricCache { offsets, rows }
    }

    fn slot(&self, k: usize, subset: Subset) -> usize {
        // A neighbouring mask's value must not answer for a bad threshold.
        assert!(k >= 1 && k <= subset.len(), "threshold out of range");
        self.offsets[subset.bits() as usize] as usize + (k - 1)
    }

    pub(crate) fn risk(&self, k: usize, subset: Subset) -> f64 {
        self.rows.risk[self.slot(k, subset)]
    }

    pub(crate) fn loss(&self, k: usize, subset: Subset) -> f64 {
        self.rows.loss[self.slot(k, subset)]
    }

    pub(crate) fn delay(&self, k: usize, subset: Subset) -> f64 {
        self.rows.delay[self.slot(k, subset)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{setups, subset};

    #[test]
    fn matches_direct_on_paper_setups() {
        // Table row == per-call value, bit for bit, all three metrics.
        for channels in [
            setups::diverse(),
            setups::lossy(),
            setups::delayed(),
            setups::identical(100.0),
            setups::diverse_with_risk(&[0.1, 0.9, 0.33, 0.5, 0.71]),
        ] {
            let cache = SubsetMetricCache::new(&channels);
            for m in Subset::all_nonempty(channels.len()) {
                for k in 1..=m.len() {
                    assert_eq!(cache.risk(k, m), subset::risk(&channels, k, m), "{k} {m}");
                    assert_eq!(cache.loss(k, m), subset::loss(&channels, k, m), "{k} {m}");
                    assert_eq!(cache.delay(k, m), subset::delay(&channels, k, m), "{k} {m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn delay_panics_on_zero_threshold() {
        let channels = setups::delayed();
        let cache = SubsetMetricCache::new(&channels);
        let _ = cache.delay(0, Subset::from_indices(&[0, 1]));
    }

    #[test]
    fn single_channel_set() {
        let channels = setups::identical_n(1, 50.0);
        let cache = SubsetMetricCache::new(&channels);
        let m = Subset::singleton(0);
        assert_eq!(cache.risk(1, m), subset::risk(&channels, 1, m));
        assert_eq!(cache.loss(1, m), subset::loss(&channels, 1, m));
        assert_eq!(cache.delay(1, m), subset::delay(&channels, 1, m));
    }
}
