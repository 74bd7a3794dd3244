//! Share schedules: categorical distributions over `(k, M)` choices
//! (§III-C).

use rand::Rng;
use rand::RngExt as _;

use crate::channel::ChannelSet;
use crate::error::ModelError;
use crate::subset::{self, Subset};

/// One admissible protocol choice for a symbol: threshold `k` and channel
/// subset `M`, with `1 ≤ k ≤ |M|`.
///
/// # Examples
///
/// ```
/// use mcss_core::{ScheduleEntry, Subset};
///
/// let e = ScheduleEntry::new(2, Subset::from_indices(&[0, 1, 4]))?;
/// assert_eq!(e.k(), 2);
/// assert_eq!(e.multiplicity(), 3);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(try_from = "RawEntry", into = "RawEntry"))]
pub struct ScheduleEntry {
    k: u8,
    subset: Subset,
}

/// Unvalidated mirror of [`ScheduleEntry`] for the `serde` feature.
#[cfg(feature = "serde")]
#[derive(serde::Serialize, serde::Deserialize)]
struct RawEntry {
    k: u8,
    subset: Subset,
}

#[cfg(feature = "serde")]
impl TryFrom<RawEntry> for ScheduleEntry {
    type Error = ModelError;

    fn try_from(raw: RawEntry) -> Result<Self, ModelError> {
        ScheduleEntry::new(raw.k, raw.subset)
    }
}

#[cfg(feature = "serde")]
impl From<ScheduleEntry> for RawEntry {
    fn from(e: ScheduleEntry) -> RawEntry {
        RawEntry {
            k: e.k,
            subset: e.subset,
        }
    }
}

impl ScheduleEntry {
    /// Creates an entry, validating `1 ≤ k ≤ |M|`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidEntry`] when the bound is violated.
    pub fn new(k: u8, subset: Subset) -> Result<Self, ModelError> {
        if k == 0 || k as usize > subset.len() {
            return Err(ModelError::InvalidEntry {
                k,
                subset_len: subset.len(),
            });
        }
        Ok(ScheduleEntry { k, subset })
    }

    /// The threshold `k`.
    #[must_use]
    pub const fn k(&self) -> u8 {
        self.k
    }

    /// The channel subset `M`.
    #[must_use]
    pub const fn subset(&self) -> Subset {
        self.subset
    }

    /// The multiplicity `m = |M|`.
    #[must_use]
    pub const fn multiplicity(&self) -> usize {
        self.subset.len()
    }
}

impl core::fmt::Display for ScheduleEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "(k={}, M={})", self.k, self.subset)
    }
}

/// A share schedule `p(k, M)`: a categorical distribution over
/// [`ScheduleEntry`] values (§III-C).
///
/// The schedule's means are the fractional protocol parameters: `κ`
/// (mean threshold) and `μ` (mean multiplicity). Schedule-level
/// properties `Z(p)`, `L(p)`, `D(p)` are expectations of the subset
/// formulas under `p`.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, ScheduleBuilder, Subset};
///
/// let channels = setups::diverse();
/// let mut b = ScheduleBuilder::new(channels.len());
/// b.push(1, Subset::from_indices(&[0, 1]), 0.5)?;
/// b.push(2, Subset::from_indices(&[2, 3, 4]), 0.5)?;
/// let p = b.build()?;
/// assert!((p.kappa() - 1.5).abs() < 1e-12);
/// assert!((p.mu() - 2.5).abs() < 1e-12);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(
    feature = "serde",
    serde(try_from = "RawSchedule", into = "RawSchedule")
)]
pub struct ShareSchedule {
    n: usize,
    entries: Vec<(ScheduleEntry, f64)>,
}

/// Unvalidated mirror of [`ShareSchedule`] for the `serde` feature:
/// deserialization rebuilds through [`ScheduleBuilder`], re-running all
/// distribution and membership validation.
#[cfg(feature = "serde")]
#[derive(serde::Serialize, serde::Deserialize)]
struct RawSchedule {
    n: usize,
    entries: Vec<(ScheduleEntry, f64)>,
}

#[cfg(feature = "serde")]
impl TryFrom<RawSchedule> for ShareSchedule {
    type Error = ModelError;

    fn try_from(raw: RawSchedule) -> Result<Self, ModelError> {
        let mut b = ScheduleBuilder::new(raw.n);
        for (e, p) in raw.entries {
            b.push(e.k(), e.subset(), p)?;
        }
        b.build_with_tolerance(1e-6)
    }
}

#[cfg(feature = "serde")]
impl From<ShareSchedule> for RawSchedule {
    fn from(s: ShareSchedule) -> RawSchedule {
        RawSchedule {
            n: s.n,
            entries: s.entries,
        }
    }
}

/// Incremental builder for a [`ShareSchedule`].
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    n: usize,
    entries: Vec<(ScheduleEntry, f64)>,
}

impl ScheduleBuilder {
    /// Starts a schedule over `n` channels.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ScheduleBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Adds probability mass `prob` to the choice `(k, M)`.
    ///
    /// Zero-probability entries are dropped silently. Repeated `(k, M)`
    /// pairs accumulate.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidEntry`] if `k` or `M` is out of range, or
    /// [`ModelError::InvalidDistribution`] if `prob` is negative or not
    /// finite.
    pub fn push(&mut self, k: u8, subset: Subset, prob: f64) -> Result<&mut Self, ModelError> {
        if !subset.is_subset_of(Subset::full(self.n)) {
            return Err(ModelError::InvalidEntry {
                k,
                subset_len: subset.len(),
            });
        }
        let entry = ScheduleEntry::new(k, subset)?;
        if !prob.is_finite() || prob < 0.0 {
            return Err(ModelError::InvalidDistribution { sum: prob });
        }
        if prob > 0.0 {
            if let Some(slot) = self.entries.iter_mut().find(|(e, _)| *e == entry) {
                slot.1 += prob;
            } else {
                self.entries.push((entry, prob));
            }
        }
        Ok(self)
    }

    /// Finalizes the schedule.
    ///
    /// The probabilities must sum to 1 within `1e-6`; they are then
    /// normalized exactly.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptySchedule`] with no entries, or
    /// [`ModelError::InvalidDistribution`] if the mass is off.
    pub fn build(self) -> Result<ShareSchedule, ModelError> {
        self.build_with_tolerance(1e-6)
    }

    /// Like [`build`](Self::build) with an explicit sum tolerance, for
    /// callers assembling schedules from floating-point optimization
    /// output.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_with_tolerance(mut self, tol: f64) -> Result<ShareSchedule, ModelError> {
        if self.entries.is_empty() {
            return Err(ModelError::EmptySchedule);
        }
        let sum: f64 = self.entries.iter().map(|(_, p)| p).sum();
        if (sum - 1.0).abs() > tol {
            return Err(ModelError::InvalidDistribution { sum });
        }
        for (_, p) in &mut self.entries {
            *p /= sum;
        }
        self.entries.sort_by_key(|(e, _)| *e);
        Ok(ShareSchedule {
            n: self.n,
            entries: self.entries,
        })
    }
}

impl ShareSchedule {
    /// The deterministic schedule that always uses `(k, M)`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidEntry`] if `1 ≤ k ≤ |M| ≤ n` fails.
    pub fn singleton(n: usize, k: u8, subset: Subset) -> Result<Self, ModelError> {
        let mut b = ScheduleBuilder::new(n);
        b.push(k, subset, 1.0)?;
        b.build()
    }

    /// The maximum-privacy schedule `p(n, C) = 1` (§IV-B): every symbol
    /// uses all channels with full threshold.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 16.
    #[must_use]
    pub fn max_privacy(n: usize) -> Self {
        ShareSchedule::singleton(n, n as u8, Subset::full(n))
            .expect("full-threshold schedule is always valid")
    }

    /// The minimum-loss schedule `p(1, C) = 1` (§IV-B): maximal
    /// redundancy.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 16.
    #[must_use]
    pub fn min_loss(n: usize) -> Self {
        ShareSchedule::singleton(n, 1, Subset::full(n))
            .expect("threshold-1 schedule is always valid")
    }

    /// The maximum-rate schedule of §IV-C: `κ = μ = 1`, with
    /// `p(1, {i}) = rᵢ / R_C` so each channel carries shares in
    /// proportion to its rate (MPTCP-like striping).
    #[must_use]
    pub fn max_rate(channels: &ChannelSet) -> Self {
        let total = channels.total_rate();
        let mut b = ScheduleBuilder::new(channels.len());
        for (i, ch) in channels.iter().enumerate() {
            b.push(1, Subset::singleton(i), ch.rate() / total)
                .expect("singleton entries are valid");
        }
        b.build().expect("rate proportions sum to 1")
    }

    /// Number of channels the schedule is defined over.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.n
    }

    /// The entries and their probabilities, sorted by `(k, M)`.
    #[must_use]
    pub fn entries(&self) -> &[(ScheduleEntry, f64)] {
        &self.entries
    }

    /// The mean threshold `κ = Σ p(k,M)·k`.
    #[must_use]
    pub fn kappa(&self) -> f64 {
        self.entries.iter().map(|(e, p)| p * f64::from(e.k())).sum()
    }

    /// The mean multiplicity `μ = Σ p(k,M)·|M|`.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.entries
            .iter()
            .map(|(e, p)| p * e.multiplicity() as f64)
            .sum()
    }

    /// Schedule privacy risk `Z(p) = Σ p(k,M)·z(k,M)`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references channels outside `channels`.
    #[must_use]
    pub fn risk(&self, channels: &ChannelSet) -> f64 {
        self.expect(channels.len(), |k, m| subset::risk(channels, k, m))
    }

    /// Schedule loss `L(p) = Σ p(k,M)·l(k,M)`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references channels outside `channels`.
    #[must_use]
    pub fn loss(&self, channels: &ChannelSet) -> f64 {
        self.expect(channels.len(), |k, m| subset::loss(channels, k, m))
    }

    /// Schedule delay `D(p) = Σ p(k,M)·d(k,M)`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references channels outside `channels`.
    #[must_use]
    pub fn delay(&self, channels: &ChannelSet) -> f64 {
        self.expect(channels.len(), |k, m| subset::delay(channels, k, m))
    }

    /// The expectation `Σ p(k,M)·f(k, M)` of a per-entry value defined
    /// over `n` channels.
    pub(crate) fn expect(&self, n: usize, f: impl Fn(usize, Subset) -> f64) -> f64 {
        assert!(
            self.n <= n,
            "schedule spans more channels than the set provides"
        );
        self.entries
            .iter()
            .map(|(e, p)| p * f(e.k() as usize, e.subset()))
            .sum()
    }

    /// The fraction of symbols whose subset includes channel `i`:
    /// `Σ_{(k,M): i∈M} p(k, M)` — the utilization ratio `r'ᵢ/R_C` of
    /// §IV-D when the schedule is rate-optimal.
    #[must_use]
    pub fn channel_usage(&self, i: usize) -> f64 {
        self.entries
            .iter()
            .filter(|(e, _)| e.subset().contains(i))
            .map(|(_, p)| p)
            .sum()
    }

    /// The highest symbol rate this schedule can sustain on `channels`:
    /// symbols arrive at rate `R`, channel `i` carries `usageᵢ · R ≤ rᵢ`
    /// shares per unit time, so `R = min rᵢ / usageᵢ` over used channels.
    ///
    /// For a §IV-D rate-optimal schedule this equals the Theorem 4 rate.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references channels outside `channels`.
    #[must_use]
    pub fn max_symbol_rate(&self, channels: &ChannelSet) -> f64 {
        assert!(self.n <= channels.len());
        (0..self.n)
            .filter_map(|i| {
                let u = self.channel_usage(i);
                (u > 0.0).then(|| channels.channel(i).rate() / u)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Samples an entry according to the distribution.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_core::{setups, ShareSchedule};
    ///
    /// let p = ShareSchedule::max_rate(&setups::diverse());
    /// let entry = p.sample(&mut rand::rng());
    /// assert_eq!(entry.k(), 1);
    /// ```
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ScheduleEntry {
        let mut u: f64 = rng.random_range(0.0..1.0);
        for (e, p) in &self.entries {
            if u < *p {
                return *e;
            }
            u -= p;
        }
        // Floating-point slack: fall back to the last entry.
        self.entries.last().expect("schedule is nonempty").0
    }
}

impl core::fmt::Display for ShareSchedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "share schedule (kappa={:.3}, mu={:.3}):",
            self.kappa(),
            self.mu()
        )?;
        for (e, p) in &self.entries {
            writeln!(f, "  p{e} = {p:.6}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups;
    use rand::SeedableRng;

    #[test]
    fn entry_validation() {
        assert!(ScheduleEntry::new(0, Subset::full(3)).is_err());
        assert!(ScheduleEntry::new(4, Subset::full(3)).is_err());
        assert!(ScheduleEntry::new(3, Subset::full(3)).is_ok());
        assert!(ScheduleEntry::new(1, Subset::EMPTY).is_err());
    }

    #[test]
    fn builder_validates_membership_and_mass() {
        let mut b = ScheduleBuilder::new(2);
        // Subset references channel 2, outside n=2.
        assert!(b.push(1, Subset::singleton(2), 1.0).is_err());
        assert!(b.push(1, Subset::singleton(0), -0.5).is_err());
        assert!(b.push(1, Subset::singleton(0), f64::NAN).is_err());
        b.push(1, Subset::singleton(0), 0.4).unwrap();
        assert!(matches!(
            b.clone().build(),
            Err(ModelError::InvalidDistribution { .. })
        ));
        b.push(2, Subset::full(2), 0.6).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.entries().len(), 2);
    }

    #[test]
    fn empty_schedule_rejected() {
        assert!(matches!(
            ScheduleBuilder::new(3).build(),
            Err(ModelError::EmptySchedule)
        ));
        // All-zero mass is also empty.
        let mut b = ScheduleBuilder::new(3);
        b.push(1, Subset::singleton(0), 0.0).unwrap();
        assert!(matches!(b.build(), Err(ModelError::EmptySchedule)));
    }

    #[test]
    fn duplicate_entries_accumulate() {
        let mut b = ScheduleBuilder::new(2);
        b.push(1, Subset::singleton(0), 0.5).unwrap();
        b.push(1, Subset::singleton(0), 0.5).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.entries().len(), 1);
        assert!((p.entries()[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kappa_mu_expectations() {
        let mut b = ScheduleBuilder::new(3);
        b.push(1, Subset::full(3), 0.5).unwrap();
        b.push(3, Subset::full(3), 0.5).unwrap();
        let p = b.build().unwrap();
        assert!((p.kappa() - 2.0).abs() < 1e-12);
        assert!((p.mu() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn max_privacy_schedule_properties() {
        let p = ShareSchedule::max_privacy(5);
        assert_eq!(p.kappa(), 5.0);
        assert_eq!(p.mu(), 5.0);
        let c = setups::diverse_with_risk(&[0.5; 5]);
        // Z = ∏ zᵢ = 0.5⁵
        assert!((p.risk(&c) - 0.03125).abs() < 1e-12);
    }

    #[test]
    fn min_loss_schedule_properties() {
        let p = ShareSchedule::min_loss(5);
        assert_eq!(p.kappa(), 1.0);
        assert_eq!(p.mu(), 5.0);
        let c = setups::lossy();
        let expect: f64 = setups::LOSSY_LOSS.iter().product();
        assert!((p.loss(&c) - expect).abs() < 1e-15);
    }

    #[test]
    fn max_rate_schedule_stripes_by_rate() {
        let c = setups::diverse();
        let p = ShareSchedule::max_rate(&c);
        assert_eq!(p.kappa(), 1.0);
        assert_eq!(p.mu(), 1.0);
        for (i, ch) in c.iter().enumerate() {
            assert!((p.channel_usage(i) - ch.rate() / 250.0).abs() < 1e-12);
        }
        // The striping schedule sustains the full aggregate rate.
        assert!((p.max_symbol_rate(&c) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn usage_counts_multi_channel_entries() {
        let mut b = ScheduleBuilder::new(3);
        b.push(2, Subset::from_indices(&[0, 1]), 0.25).unwrap();
        b.push(1, Subset::from_indices(&[1, 2]), 0.75).unwrap();
        let p = b.build().unwrap();
        assert!((p.channel_usage(0) - 0.25).abs() < 1e-12);
        assert!((p.channel_usage(1) - 1.0).abs() < 1e-12);
        assert!((p.channel_usage(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut b = ScheduleBuilder::new(2);
        b.push(1, Subset::singleton(0), 0.25).unwrap();
        b.push(2, Subset::full(2), 0.75).unwrap();
        let p = b.build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut heavy = 0u32;
        let trials = 40_000;
        for _ in 0..trials {
            if p.sample(&mut rng).k() == 2 {
                heavy += 1;
            }
        }
        let frac = f64::from(heavy) / f64::from(trials);
        assert!((frac - 0.75).abs() < 0.02, "sampled fraction {frac}");
    }

    #[test]
    fn schedule_display_lists_entries() {
        let p = ShareSchedule::max_privacy(2);
        let s = p.to_string();
        assert!(s.contains("kappa=2.000"));
        assert!(s.contains("{0,1}"));
    }

    #[test]
    fn delay_expectation_on_delayed_setup() {
        // Half (1, {fastest}), half (1, {slowest}): D = (0.25 + 12.5)/2 ms.
        let c = setups::delayed();
        let mut b = ScheduleBuilder::new(5);
        b.push(1, Subset::singleton(1), 0.5).unwrap();
        b.push(1, Subset::singleton(2), 0.5).unwrap();
        let p = b.build().unwrap();
        assert!((p.delay(&c) - (0.25e-3 + 12.5e-3) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_rejects_invalid() {
        assert!(ShareSchedule::singleton(3, 4, Subset::full(3)).is_err());
        assert!(ShareSchedule::singleton(2, 1, Subset::singleton(2)).is_err());
    }
}
