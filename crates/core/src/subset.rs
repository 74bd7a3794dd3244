//! Channel subsets and the per-subset property formulas of §IV-A.
//!
//! A [`Subset`] is a bitmask over channel indices (bit `i` = channel `i`
//! of a [`ChannelSet`]). The three formulas here give
//! the expected privacy risk, loss, and delay of sending one symbol's
//! shares over a given subset `M` with threshold `k`:
//!
//! * [`risk`] — `z(k, M)`, the Poisson-binomial upper tail: probability
//!   the adversary observes at least `k` shares.
//! * [`loss`] — `l(k, M)`: probability fewer than `k` shares arrive.
//! * [`delay`] — `d(k, M)`: expected time until the `k`-th share arrives,
//!   averaged over loss patterns that still deliver the symbol.

use crate::channel::ChannelSet;

/// A subset of channel indices, packed into a 16-bit mask.
///
/// # Examples
///
/// ```
/// use mcss_core::Subset;
///
/// let m = Subset::from_indices(&[0, 2, 3]);
/// assert_eq!(m.len(), 3);
/// assert!(m.contains(2));
/// assert!(!m.contains(1));
/// assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct Subset(u16);

impl Subset {
    /// The empty subset.
    pub const EMPTY: Subset = Subset(0);

    /// Builds a subset from a raw bitmask.
    #[must_use]
    pub const fn from_bits(bits: u16) -> Self {
        Subset(bits)
    }

    /// The raw bitmask.
    #[must_use]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// The subset `{0, 1, …, n−1}` of all `n` channels.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= 16, "subset supports at most 16 channels");
        if n == 16 {
            Subset(u16::MAX)
        } else {
            Subset((1u16 << n) - 1)
        }
    }

    /// The singleton subset `{i}`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 16`.
    #[must_use]
    pub fn singleton(i: usize) -> Self {
        assert!(i < 16, "channel index out of range");
        Subset(1u16 << i)
    }

    /// Builds a subset from channel indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is ≥ 16.
    #[must_use]
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut bits = 0u16;
        for &i in indices {
            assert!(i < 16, "channel index out of range");
            bits |= 1 << i;
        }
        Subset(bits)
    }

    /// Number of channels in the subset (`|M|`, the multiplicity `m`).
    #[must_use]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the subset is empty.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether channel `i` is in the subset.
    #[must_use]
    pub const fn contains(self, i: usize) -> bool {
        i < 16 && self.0 & (1 << i) != 0
    }

    /// The subset with channel `i` added.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 16`.
    #[must_use]
    pub fn with(self, i: usize) -> Self {
        assert!(i < 16, "channel index out of range");
        Subset(self.0 | (1 << i))
    }

    /// The subset with channel `i` removed.
    #[must_use]
    pub const fn without(self, i: usize) -> Self {
        Subset(self.0 & !(1 << i))
    }

    /// Whether every channel of `self` is in `other`.
    #[must_use]
    pub const fn is_subset_of(self, other: Subset) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set intersection.
    #[must_use]
    pub const fn intersect(self, other: Subset) -> Subset {
        Subset(self.0 & other.0)
    }

    /// Set union.
    #[must_use]
    pub const fn union(self, other: Subset) -> Subset {
        Subset(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub const fn difference(self, other: Subset) -> Subset {
        Subset(self.0 & !other.0)
    }

    /// Iterator over the channel indices in the subset, ascending.
    pub fn iter(self) -> Iter {
        Iter { bits: self.0 }
    }

    /// Iterator over every subset of `{0, …, n−1}`, including the empty
    /// set, in ascending mask order.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    pub fn all(n: usize) -> impl Iterator<Item = Subset> {
        assert!(n <= 16, "subset supports at most 16 channels");
        (0..=Subset::full(n).bits()).map(Subset)
    }

    /// Iterator over every non-empty subset of `{0, …, n−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    pub fn all_nonempty(n: usize) -> impl Iterator<Item = Subset> {
        Subset::all(n).skip(1)
    }

    /// Iterator over every subset of `self` (including empty and `self`).
    pub fn subsets(self) -> Subsets {
        Subsets {
            mask: self.0,
            next: Some(0),
        }
    }
}

impl core::fmt::Display for Subset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        for (pos, i) in self.iter().enumerate() {
            if pos > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the channel indices of a [`Subset`].
#[derive(Debug, Clone)]
pub struct Iter {
    bits: u16,
}

impl Iterator for Iter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let i = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl IntoIterator for Subset {
    type Item = usize;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over all submasks of a mask (standard `(s−1) & m` walk,
/// ascending).
#[derive(Debug, Clone)]
pub struct Subsets {
    mask: u16,
    next: Option<u16>,
}

impl Iterator for Subsets {
    type Item = Subset;

    fn next(&mut self) -> Option<Subset> {
        let cur = self.next?;
        self.next = if cur == self.mask {
            None
        } else {
            // Next submask in ascending order: increment within the mask.
            Some(((cur | !self.mask).wrapping_add(1)) & self.mask)
        };
        Some(Subset(cur))
    }
}

/// `z(k, M)`, `l(k, M)` and `d(k, M)` for every admissible threshold of
/// the masks pushed so far: each [`push`](MetricRows::push) appends `|M|`
/// values to each vector, entry `k − 1` of the run belonging to `k`.
///
/// The one place the §IV-A formulas are evaluated: [`risk`], [`loss`]
/// and [`delay`] push a single mask, the crate's table pushes them all.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricRows {
    pub(crate) risk: Vec<f64>,
    pub(crate) loss: Vec<f64>,
    pub(crate) delay: Vec<f64>,
}

impl MetricRows {
    pub(crate) fn with_capacity(entries: usize) -> Self {
        MetricRows {
            risk: Vec::with_capacity(entries),
            loss: Vec::with_capacity(entries),
            delay: Vec::with_capacity(entries),
        }
    }

    pub(crate) fn push(&mut self, channels: &ChannelSet, subset: Subset) {
        let size = subset.len();
        let base = self.loss.len();

        // z and l: upper tails of the Poisson-binomial distributions of
        // observed and of arriving shares.
        let observed = poisson_binomial_pmf(subset.iter().map(|i| channels.channel(i).risk()));
        let arrived = poisson_binomial_pmf(subset.iter().map(|i| 1.0 - channels.channel(i).loss()));
        let tail = |pmf: &[f64], k: usize| pmf[k..].iter().sum::<f64>().clamp(0.0, 1.0);
        self.risk.extend((1..=size).map(|k| tail(&observed, k)));
        self.loss
            .extend((1..=size).map(|k| 1.0 - tail(&arrived, k)));

        // d(k, M) for every k in one pass. Partition the §IV-A sum over
        // arrival patterns K by which channel is the k-th fastest
        // survivor: walking channels in ascending delay order with an
        // arrival-count DP over the processed prefix,
        //   Σ_{|K|≥k} w(K)·δ_K(k)
        //     = Σ_j δ_j·(1−l_j)·P[exactly k−1 of the j−1 faster
        //       channels arrive],
        // an exact algebraic identity that replaces the exponential
        // submask walk of `delay_by_enumeration` with O(|M|²) work.
        let mut by_delay: Vec<usize> = subset.iter().collect();
        by_delay.sort_by(|&a, &b| {
            let (a, b) = (channels.channel(a).delay(), channels.channel(b).delay());
            a.partial_cmp(&b).expect("delays are finite")
        });
        self.delay.resize(base + size, 0.0);
        let acc = &mut self.delay[base..];
        let mut prefix_pmf = vec![0.0f64; size + 1];
        prefix_pmf[0] = 1.0;
        for (j, &i) in by_delay.iter().enumerate() {
            let d_i = channels.channel(i).delay();
            let p_i = 1.0 - channels.channel(i).loss();
            for (k0, slot) in acc.iter_mut().enumerate().take(j + 1) {
                *slot += d_i * p_i * prefix_pmf[k0];
            }
            for c in (0..=j).rev() {
                let stay = prefix_pmf[c] * (1.0 - p_i);
                prefix_pmf[c + 1] += prefix_pmf[c] * p_i;
                prefix_pmf[c] = stay;
            }
        }
        for (numerator, l_km) in acc.iter_mut().zip(&self.loss[base..]) {
            // loss < 1 per channel, so the divisor is positive.
            *numerator /= 1.0 - l_km;
        }
    }
}

/// The single-mask row behind the per-call formulas.
fn row(channels: &ChannelSet, subset: Subset) -> MetricRows {
    let mut rows = MetricRows::default();
    rows.push(channels, subset);
    rows
}

/// Subset risk `z(k, M)`: probability that an adversary observes at least
/// `k` of the shares sent over `M` — the upper tail of the
/// Poisson-binomial distribution with success probabilities `zᵢ, i ∈ M`.
///
/// Computed by an `O(|M|²)` dynamic program over share counts. For `k`
/// greater than `|M|` the tail is empty and the risk is 0; for `k = 0` it
/// is 1.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, subset, Subset};
///
/// let c = setups::diverse_with_risk(&[0.5; 5]);
/// let m = Subset::from_indices(&[0, 1]);
/// // Both of two fair coins: 0.25.
/// assert!((subset::risk(&c, 2, m) - 0.25).abs() < 1e-12);
/// ```
#[must_use]
pub fn risk(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    match k {
        0 => 1.0,
        k if k > subset.len() => 0.0,
        k => row(channels, subset).risk[k - 1],
    }
}

/// Subset loss `l(k, M)`: probability that fewer than `k` shares arrive,
/// i.e. the lower tail (at `k − 1`) of the Poisson-binomial distribution
/// with success probabilities `1 − lᵢ`. 0 for `k = 0`, 1 for `k > |M|`.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, subset, Subset};
///
/// let c = setups::lossy();
/// let m = Subset::from_indices(&[0]);
/// assert!((subset::loss(&c, 1, m) - 0.01).abs() < 1e-12);
/// ```
#[must_use]
pub fn loss(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    match k {
        0 => 0.0,
        k if k > subset.len() => 1.0,
        k => row(channels, subset).loss[k - 1],
    }
}

/// Subset delay `d(k, M)`: the expected time from sending a symbol's
/// shares to its reconstruction, conditioned on the symbol being
/// delivered (i.e. at least `k` shares arriving): the §IV-A average of
/// `δ_K(k)` over arrival patterns, normalized by `1 − l(k, M)`, summed
/// channel by channel in delay order instead of pattern by pattern (see
/// [`delay_by_enumeration`] for the sum as the paper writes it). With
/// all `lᵢ = 0` this collapses to `δ_M(k)`.
///
/// # Panics
///
/// Panics if `k` is 0 or greater than `|M|`.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, subset, Subset};
///
/// let c = setups::delayed();
/// let m = Subset::from_indices(&[0, 1, 4]);
/// // Lossless: d(2, M) is the 2nd smallest delay (0.5 ms).
/// assert!((subset::delay(&c, 2, m) - 0.5e-3).abs() < 1e-12);
/// ```
#[must_use]
pub fn delay(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    assert!(k >= 1 && k <= subset.len(), "threshold out of range");
    row(channels, subset).delay[k - 1]
}

/// The Poisson-binomial probability mass function: entry `j` is
/// `P[X = j]` successes among independent trials with the given success
/// probabilities, by dynamic programming over the trials.
fn poisson_binomial_pmf(probs: impl ExactSizeIterator<Item = f64>) -> Vec<f64> {
    // dp[j] = P[j successes so far]
    let mut dp = vec![0.0f64; probs.len() + 1];
    dp[0] = 1.0;
    for (seen, p) in probs.enumerate() {
        for j in (0..=seen).rev() {
            let stay = dp[j] * (1.0 - p);
            dp[j + 1] += dp[j] * p;
            dp[j] = stay;
        }
    }
    dp
}

/// Reference implementation of `z(k, M)` by exact enumeration of all
/// observation patterns `K ⊆ M`, exactly as written in the paper:
///
/// `z(k,M) = Σ_{K⊆M, |K|≥k} Π_{i∈K} zᵢ Π_{j∈M\K} (1−zⱼ)`.
///
/// Exponential in `|M|`; used to cross-check [`risk`].
#[must_use]
pub fn risk_by_enumeration(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    let mut total = 0.0;
    for observed in subset.subsets() {
        if observed.len() < k {
            continue;
        }
        let mut term = 1.0;
        for i in subset.iter() {
            let z = channels.channel(i).risk();
            term *= if observed.contains(i) { z } else { 1.0 - z };
        }
        total += term;
    }
    total
}

/// Reference implementation of `l(k, M)` by exact enumeration:
///
/// `l(k,M) = Σ_{K⊆M, |K|<k} Π_{i∈K} (1−lᵢ) Π_{j∈M\K} lⱼ`.
///
/// Exponential in `|M|`; used to cross-check [`loss`].
#[must_use]
pub fn loss_by_enumeration(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    let mut total = 0.0;
    for arrived in subset.subsets() {
        if arrived.len() >= k {
            continue;
        }
        let mut term = 1.0;
        for i in subset.iter() {
            let l = channels.channel(i).loss();
            term *= if arrived.contains(i) { 1.0 - l } else { l };
        }
        total += term;
    }
    total
}

/// The `k`-th smallest delay among the channels of `subset` (1-indexed):
/// the order statistic `δ_S(k)` of §IV-A.
///
/// # Panics
///
/// Panics if `k` is 0 or greater than `|subset|`.
#[must_use]
pub fn delay_order_statistic(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    assert!(k >= 1 && k <= subset.len(), "order statistic out of range");
    let mut delays: Vec<f64> = subset.iter().map(|i| channels.channel(i).delay()).collect();
    delays.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));
    delays[k - 1]
}

/// Reference implementation of `d(k, M)` exactly as written in §IV-A: a
/// weighted average of `δ_K(k)` over every arrival pattern `K ⊆ M` with
/// `|K| ≥ k`, each weighted by the probability that `K` is exactly the
/// set of surviving shares, normalized by `1 − l(k, M)`.
///
/// Exponential in `|M|`; used to cross-check [`delay`].
///
/// # Panics
///
/// Panics if `k` is 0 or greater than `|M|`.
#[must_use]
pub fn delay_by_enumeration(channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
    assert!(k >= 1 && k <= subset.len(), "threshold out of range");
    let l_km = loss(channels, k, subset);
    let mut acc = 0.0;
    for arrived in subset.subsets() {
        if arrived.len() < k {
            continue;
        }
        let mut weight = 1.0;
        for i in subset.iter() {
            let l = channels.channel(i).loss();
            weight *= if arrived.contains(i) { 1.0 - l } else { l };
        }
        if weight > 0.0 {
            acc += delay_order_statistic(channels, k, arrived) * weight;
        }
    }
    acc / (1.0 - l_km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, ChannelSet};
    use proptest::prelude::*;

    fn set(chs: &[(f64, f64, f64, f64)]) -> ChannelSet {
        ChannelSet::new(
            chs.iter()
                .map(|&(z, l, d, r)| Channel::new(z, l, d, r).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn subset_basics() {
        let s = Subset::from_indices(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.contains(1) && s.contains(3) && !s.contains(0));
        assert_eq!(s.with(0), Subset::from_indices(&[0, 1, 3]));
        assert_eq!(s.without(3), Subset::singleton(1));
        assert_eq!(s.without(7), s);
        assert!(Subset::singleton(1).is_subset_of(s));
        assert!(!s.is_subset_of(Subset::singleton(1)));
        assert_eq!(s.to_string(), "{1,3}");
        assert_eq!(Subset::EMPTY.to_string(), "{}");
        assert_eq!(s.union(Subset::singleton(0)).len(), 3);
        assert_eq!(s.intersect(Subset::singleton(1)), Subset::singleton(1));
        assert_eq!(s.difference(Subset::singleton(1)), Subset::singleton(3));
    }

    #[test]
    fn full_subset_sizes() {
        assert_eq!(Subset::full(0), Subset::EMPTY);
        assert_eq!(Subset::full(5).len(), 5);
        assert_eq!(Subset::full(16).len(), 16);
    }

    #[test]
    #[should_panic(expected = "at most 16")]
    fn full_of_17_panics() {
        let _ = Subset::full(17);
    }

    #[test]
    fn all_subsets_counts() {
        assert_eq!(Subset::all(3).count(), 8);
        assert_eq!(Subset::all_nonempty(3).count(), 7);
        assert_eq!(Subset::all(0).count(), 1);
    }

    #[test]
    fn submask_walk_enumerates_powerset() {
        let m = Subset::from_indices(&[0, 2, 5]);
        let subs: Vec<Subset> = m.subsets().collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&Subset::EMPTY));
        assert!(subs.contains(&m));
        for s in &subs {
            assert!(s.is_subset_of(m));
        }
        // Empty mask has exactly one subset.
        assert_eq!(Subset::EMPTY.subsets().count(), 1);
    }

    #[test]
    fn iter_ascending_and_exact_size() {
        let s = Subset::from_indices(&[7, 0, 15]);
        let v: Vec<usize> = s.into_iter().collect();
        assert_eq!(v, vec![0, 7, 15]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn tail_edge_cases() {
        let c = set(&[(0.3, 0.3, 0.0, 1.0)]);
        assert_eq!(risk(&c, 0, Subset::EMPTY), 1.0);
        assert_eq!(risk(&c, 1, Subset::EMPTY), 0.0);
        assert_eq!(loss(&c, 0, Subset::EMPTY), 0.0);
        assert_eq!(loss(&c, 1, Subset::EMPTY), 1.0);
        let m = Subset::singleton(0);
        assert_eq!(risk(&c, 0, m), 1.0);
        assert!((risk(&c, 1, m) - 0.3).abs() < 1e-15);
        assert_eq!(risk(&c, 2, m), 0.0);
        assert_eq!(loss(&c, 0, m), 0.0);
        assert!((loss(&c, 1, m) - 0.3).abs() < 1e-15);
        assert_eq!(loss(&c, 2, m), 1.0);
    }

    #[test]
    fn risk_known_values() {
        // Three channels with z = 0.5 each: binomial tails.
        let c = set(&[(0.5, 0.0, 0.0, 1.0); 3]);
        let m = Subset::full(3);
        assert!((risk(&c, 1, m) - 0.875).abs() < 1e-12);
        assert!((risk(&c, 2, m) - 0.5).abs() < 1e-12);
        assert!((risk(&c, 3, m) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn risk_with_certain_observer() {
        // One channel always observed: z(1, {i}) = 1.
        let c = set(&[(1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)]);
        assert_eq!(risk(&c, 1, Subset::singleton(0)), 1.0);
        assert_eq!(risk(&c, 1, Subset::singleton(1)), 0.0);
        // Both channels: observing ≥2 requires the impossible one.
        assert_eq!(risk(&c, 2, Subset::full(2)), 0.0);
    }

    #[test]
    fn loss_known_values() {
        let c = set(&[(0.0, 0.1, 0.0, 1.0), (0.0, 0.2, 0.0, 1.0)]);
        let m = Subset::full(2);
        // Lose symbol at k=1 ⇔ both shares lost: 0.02.
        assert!((loss(&c, 1, m) - 0.02).abs() < 1e-12);
        // Lose symbol at k=2 ⇔ any share lost: 1 − 0.9·0.8 = 0.28.
        assert!((loss(&c, 2, m) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn lossless_delay_is_order_statistic() {
        let c = set(&[
            (0.0, 0.0, 2.0, 1.0),
            (0.0, 0.0, 9.0, 1.0),
            (0.0, 0.0, 10.0, 1.0),
        ]);
        let m = Subset::full(3);
        assert_eq!(delay(&c, 1, m), 2.0);
        assert_eq!(delay(&c, 2, m), 9.0);
        assert_eq!(delay(&c, 3, m), 10.0);
    }

    #[test]
    fn lossy_delay_weights_slower_channels() {
        // Fast channel loses half its shares; slow one never does.
        let c = set(&[(0.0, 0.5, 1.0, 1.0), (0.0, 0.0, 10.0, 1.0)]);
        let m = Subset::full(2);
        // k=1: fast share arrives (p=.5) → δ=1; only slow arrives → 10.
        // d = (0.5·1 + 0.5·10) / (1 − 0) = 5.5
        assert!((delay(&c, 1, m) - 5.5).abs() < 1e-12);
        // k=2: both must arrive; conditioned on that, δ = 10.
        assert!((delay(&c, 2, m) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn delay_conditioning_excludes_lost_symbols() {
        // Single lossy channel: conditioned on delivery, delay is just d.
        let c = set(&[(0.0, 0.9, 7.0, 1.0)]);
        assert!((delay(&c, 1, Subset::singleton(0)) - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "threshold out of range")]
    fn delay_rejects_k_above_subset() {
        let c = set(&[(0.0, 0.0, 1.0, 1.0)]);
        let _ = delay(&c, 2, Subset::singleton(0));
    }

    #[test]
    fn order_statistic_sorted() {
        let c = set(&[
            (0.0, 0.0, 5.0, 1.0),
            (0.0, 0.0, 1.0, 1.0),
            (0.0, 0.0, 3.0, 1.0),
        ]);
        let m = Subset::full(3);
        assert_eq!(delay_order_statistic(&c, 1, m), 1.0);
        assert_eq!(delay_order_statistic(&c, 2, m), 3.0);
        assert_eq!(delay_order_statistic(&c, 3, m), 5.0);
    }

    proptest! {
        #[test]
        fn dp_matches_enumeration(
            zs in proptest::collection::vec(0.0f64..=1.0, 1..7),
            ls in proptest::collection::vec(0.0f64..0.99, 1..7),
            k in 0usize..8,
        ) {
            let n = zs.len().min(ls.len());
            let chans = set(
                &zs[..n]
                    .iter()
                    .zip(&ls[..n])
                    .map(|(&z, &l)| (z, l, 1.0, 1.0))
                    .collect::<Vec<_>>(),
            );
            let m = Subset::full(n);
            prop_assert!((risk(&chans, k, m) - risk_by_enumeration(&chans, k, m)).abs() < 1e-10);
            prop_assert!((loss(&chans, k, m) - loss_by_enumeration(&chans, k, m)).abs() < 1e-10);
        }

        #[test]
        fn risk_monotone_in_k(
            zs in proptest::collection::vec(0.0f64..=1.0, 1..7),
        ) {
            let chans = set(&zs.iter().map(|&z| (z, 0.0, 1.0, 1.0)).collect::<Vec<_>>());
            let m = Subset::full(zs.len());
            let mut prev = 1.0;
            for k in 1..=zs.len() {
                let r = risk(&chans, k, m);
                prop_assert!(r <= prev + 1e-12, "risk must fall as k rises");
                prev = r;
            }
        }

        #[test]
        fn loss_monotone_in_k(
            ls in proptest::collection::vec(0.0f64..0.99, 1..7),
        ) {
            let chans = set(&ls.iter().map(|&l| (0.0, l, 1.0, 1.0)).collect::<Vec<_>>());
            let m = Subset::full(ls.len());
            let mut prev = 0.0;
            for k in 1..=ls.len() {
                let l = loss(&chans, k, m);
                prop_assert!(l >= prev - 1e-12, "loss must rise as k rises");
                prev = l;
            }
        }

        #[test]
        fn delay_monotone_in_k(
            ds in proptest::collection::vec(0.0f64..100.0, 1..6),
            ls in proptest::collection::vec(0.0f64..0.9, 1..6),
        ) {
            let n = ds.len().min(ls.len());
            let chans = set(
                &ds[..n]
                    .iter()
                    .zip(&ls[..n])
                    .map(|(&d, &l)| (0.0, l, d, 1.0))
                    .collect::<Vec<_>>(),
            );
            let m = Subset::full(n);
            let mut prev = 0.0;
            for k in 1..=n {
                let d = delay(&chans, k, m);
                prop_assert!(d >= prev - 1e-9, "delay must rise as k rises");
                prev = d;
            }
        }

        #[test]
        fn adding_channels_never_hurts_risk_or_loss(
            zs in proptest::collection::vec(0.0f64..=1.0, 2..7),
            k in 1usize..4,
        ) {
            // Superset M ⊇ M' can only raise z(k, ·) (more chances to
            // observe) and lower l(k, ·) (more chances to deliver).
            let chans = set(&zs.iter().map(|&z| (z, z.min(0.98), 1.0, 1.0)).collect::<Vec<_>>());
            let n = zs.len();
            let small = Subset::full(n - 1);
            let big = Subset::full(n);
            prop_assume!(k <= small.len());
            prop_assert!(risk(&chans, k, big) >= risk(&chans, k, small) - 1e-12);
            prop_assert!(loss(&chans, k, big) <= loss(&chans, k, small) + 1e-12);
        }
    }
}
