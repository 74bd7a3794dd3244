//! Optimal share schedules by linear programming (§IV-B and §IV-D).
//!
//! Both programs optimize a schedule-level property over the probability
//! mass values `p(k, M)`:
//!
//! * [`optimal_schedule`] — the §IV-B program: fix the means `κ` and `μ`
//!   and fully optimize privacy, loss, or delay. The optimum often uses a
//!   single "best" `(k, M)` and leaves other channels idle.
//! * [`optimal_schedule_at_max_rate`] — the §IV-D program: additionally
//!   constrain per-channel usage to `min(rᵢ/R_C, 1)` so the schedule
//!   sustains the Theorem 4 optimal rate while optimizing the property.

use mcss_lp::{Problem, Relation};

use crate::cache::SubsetMetricCache;
use crate::channel::ChannelSet;
use crate::error::{check_params, ModelError};
use crate::optimal;
use crate::schedule::{ScheduleBuilder, ScheduleEntry, ShareSchedule};
use crate::subset::{self, Subset};

/// Which schedule property the linear program minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize the schedule risk `Z(p)` (maximize privacy).
    Privacy,
    /// Minimize the schedule loss `L(p)`.
    Loss,
    /// Minimize the schedule delay `D(p)`.
    Delay,
}

impl Objective {
    /// The per-entry cost `z`, `l`, or `d` of `(k, M)` on `channels`.
    #[must_use]
    pub fn cost(self, channels: &ChannelSet, k: usize, subset: Subset) -> f64 {
        match self {
            Objective::Privacy => subset::risk(channels, k, subset),
            Objective::Loss => subset::loss(channels, k, subset),
            Objective::Delay => subset::delay(channels, k, subset),
        }
    }

    /// The objective as a composite one: all the weight on its own
    /// property. `0.0 + 1.0·x` is `x` exactly, so the cost vector is the
    /// one [`Objective::cost`] gives.
    pub(crate) fn weights(self) -> Weights {
        let on = |o| if self == o { 1.0 } else { 0.0 };
        Weights {
            risk: on(Objective::Privacy),
            loss: on(Objective::Loss),
            delay: on(Objective::Delay),
        }
    }
}

impl core::fmt::Display for Objective {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Objective::Privacy => write!(f, "privacy"),
            Objective::Loss => write!(f, "loss"),
            Objective::Delay => write!(f, "delay"),
        }
    }
}

/// Enumerates every admissible `(k, M)` pair over `n` channels — the set
/// `𝓜` of §III-C. For `n = 5` this yields `Σ_m C(5,m)·m = 80` entries.
#[must_use]
pub fn all_entries(n: usize) -> Vec<ScheduleEntry> {
    let mut out = Vec::new();
    for m in Subset::all_nonempty(n) {
        for k in 1..=m.len() as u8 {
            out.push(ScheduleEntry::new(k, m).expect("enumerated entries are valid"));
        }
    }
    out
}

/// Both programs, over a composite objective and the entry set `entries`
/// (all of `𝓜`, or §IV-E's `𝓜'`), priced from `cache`, the table of
/// `channels`: §IV-B fixes the mean multiplicity with a `μ` row; §IV-D
/// (`at_max_rate`) replaces it with one usage row per channel,
/// `Σ_{(k,M): i∈M} p(k,M) = min(rᵢ/R_C, 1)`.
pub(crate) fn solve(
    channels: &ChannelSet,
    cache: &SubsetMetricCache,
    entries: &[ScheduleEntry],
    kappa: f64,
    mu: f64,
    weights: Weights,
    at_max_rate: bool,
) -> Result<ShareSchedule, ModelError> {
    check_params(kappa, mu, Some(channels.len()))?;
    weights.validate()?;
    let costs: Vec<f64> = entries
        .iter()
        .map(|e| weights.cost(cache, e.k() as usize, e.subset()))
        .collect();
    let mut lp = Problem::minimize(&costs);
    let ones = vec![1.0; entries.len()];
    lp.constraint(&ones, Relation::Eq, 1.0)?;
    let kvec: Vec<f64> = entries.iter().map(|e| f64::from(e.k())).collect();
    lp.constraint(&kvec, Relation::Eq, kappa)?;
    if at_max_rate {
        let rc = optimal::optimal_rate(channels, mu)?;
        for (i, ch) in channels.iter().enumerate() {
            let row: Vec<f64> = entries
                .iter()
                .map(|e| if e.subset().contains(i) { 1.0 } else { 0.0 })
                .collect();
            lp.constraint(&row, Relation::Eq, (ch.rate() / rc).min(1.0))?;
        }
    } else {
        let mvec: Vec<f64> = entries.iter().map(|e| e.multiplicity() as f64).collect();
        lp.constraint(&mvec, Relation::Eq, mu)?;
    }
    let solution = lp.solve()?;
    let mut b = ScheduleBuilder::new(channels.len());
    for (e, &p) in entries.iter().zip(solution.values()) {
        if p > 1e-12 {
            b.push(e.k(), e.subset(), p)?;
        }
    }
    b.build_with_tolerance(1e-6)
}

/// [`solve`] over all of `𝓜`, on a table built for this one call.
fn solve_over_all(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    weights: Weights,
    at_max_rate: bool,
) -> Result<ShareSchedule, ModelError> {
    let cache = SubsetMetricCache::new(channels);
    let entries = all_entries(channels.len());
    solve(channels, &cache, &entries, kappa, mu, weights, at_max_rate)
}

/// Relative weights for a composite objective `w_z·Z(p) + w_l·L(p) +
/// w_d·D(p)` — a convex scalarization of the three schedule properties.
///
/// Weights must be nonnegative and not all zero. Because delay is not a
/// probability, callers should scale `delay` by roughly `1 / D_max` to
/// make the terms commensurable; [`Weights::normalized_for`] does this
/// automatically using the channel set's largest delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Weight on the schedule risk `Z(p)`.
    pub risk: f64,
    /// Weight on the schedule loss `L(p)`.
    pub loss: f64,
    /// Weight on the schedule delay `D(p)`.
    pub delay: f64,
}

impl Weights {
    /// Weights that scale the delay term by the reciprocal of the
    /// largest channel delay, making all three terms dimensionless and
    /// bounded by ~1.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcss_core::{setups, lp_schedule::Weights};
    /// let w = Weights { risk: 1.0, loss: 1.0, delay: 1.0 }
    ///     .normalized_for(&setups::delayed());
    /// assert!(w.delay > 1.0); // 1 / 12.5 ms
    /// ```
    #[must_use]
    pub fn normalized_for(mut self, channels: &ChannelSet) -> Self {
        let dmax = channels.iter().map(|c| c.delay()).fold(0.0f64, f64::max);
        if dmax > 0.0 {
            self.delay /= dmax;
        }
        self
    }

    fn validate(&self) -> Result<(), ModelError> {
        let vals = [self.risk, self.loss, self.delay];
        if vals.iter().any(|w| !w.is_finite() || *w < 0.0) || vals.iter().all(|w| *w == 0.0) {
            return Err(ModelError::InvalidDistribution {
                sum: self.risk + self.loss + self.delay,
            });
        }
        Ok(())
    }

    /// The composite cost of entry `(k, M)`: the one place a schedule
    /// property enters an LP cost vector.
    pub(crate) fn cost(&self, cache: &SubsetMetricCache, k: usize, m: Subset) -> f64 {
        let mut c = 0.0;
        if self.risk > 0.0 {
            c += self.risk * cache.risk(k, m);
        }
        if self.loss > 0.0 {
            c += self.loss * cache.loss(k, m);
        }
        if self.delay > 0.0 {
            c += self.delay * cache.delay(k, m);
        }
        c
    }
}

/// The §IV-B program with a composite objective: minimize
/// `w_z·Z + w_l·L + w_d·D` at fixed `(κ, μ)`.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] for bad `(κ, μ)`;
/// [`ModelError::InvalidDistribution`] for invalid weights.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, lp_schedule::{optimal_schedule_weighted, Weights}};
/// let c = setups::lossy();
/// let w = Weights { risk: 1.0, loss: 10.0, delay: 0.0 };
/// let p = optimal_schedule_weighted(&c, 2.0, 3.0, w)?;
/// assert!((p.kappa() - 2.0).abs() < 1e-6);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn optimal_schedule_weighted(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    weights: Weights,
) -> Result<ShareSchedule, ModelError> {
    solve_over_all(channels, kappa, mu, weights, false)
}

/// The §IV-D program with a composite objective: minimize
/// `w_z·Z + w_l·L + w_d·D` while sustaining the Theorem 4 optimal rate.
///
/// # Errors
///
/// Same conditions as [`optimal_schedule_weighted`].
pub fn optimal_schedule_weighted_at_max_rate(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    weights: Weights,
) -> Result<ShareSchedule, ModelError> {
    solve_over_all(channels, kappa, mu, weights, true)
}

/// The §IV-B program: the schedule minimizing `objective` over all
/// schedules with mean threshold `κ` and mean multiplicity `μ`.
///
/// Note the caveat the paper raises: this program is free to leave
/// channels unused, so the resulting schedule usually cannot sustain the
/// optimal rate — use [`optimal_schedule_at_max_rate`] when throughput
/// matters.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`;
/// [`ModelError::Lp`] if the program fails (cannot happen for valid
/// parameters).
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, lp_schedule::{optimal_schedule, Objective}};
///
/// let c = setups::lossy();
/// let p = optimal_schedule(&c, 1.5, 3.0, Objective::Loss)?;
/// assert!((p.kappa() - 1.5).abs() < 1e-6);
/// assert!((p.mu() - 3.0).abs() < 1e-6);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn optimal_schedule(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    objective: Objective,
) -> Result<ShareSchedule, ModelError> {
    solve_over_all(channels, kappa, mu, objective.weights(), false)
}

/// The §IV-D program: the schedule minimizing `objective` at mean
/// threshold `κ` and mean multiplicity `μ` **while transmitting at the
/// Theorem 4 optimal rate** `R_C(μ)`.
///
/// The per-channel constraint `Σ_{(k,M): i∈M} p(k,M) = min(rᵢ/R_C, 1)`
/// replaces the explicit `μ` row (their sum equals `μ` by Theorem 3; the
/// resulting schedule's `μ` is verified in tests).
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`;
/// [`ModelError::Lp`] if the program is infeasible (cannot happen for
/// valid parameters).
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal, lp_schedule::{optimal_schedule_at_max_rate, Objective}};
///
/// let c = setups::diverse();
/// let p = optimal_schedule_at_max_rate(&c, 2.0, 3.0, Objective::Privacy)?;
/// // The schedule sustains exactly the optimal rate.
/// let rc = optimal::optimal_rate(&c, 3.0)?;
/// assert!((p.max_symbol_rate(&c) - rc).abs() < 1e-6 * rc);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn optimal_schedule_at_max_rate(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    objective: Objective,
) -> Result<ShareSchedule, ModelError> {
    solve_over_all(channels, kappa, mu, objective.weights(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups;

    #[test]
    fn entry_enumeration_count() {
        // Σ_m C(n,m)·m = n·2^(n−1)
        assert_eq!(all_entries(1).len(), 1);
        assert_eq!(all_entries(3).len(), 12);
        assert_eq!(all_entries(5).len(), 80);
    }

    #[test]
    fn iv_b_hits_closed_form_privacy_bound() {
        // κ = μ = n must recover Z_C = Π zᵢ.
        let c = setups::diverse_with_risk(&[0.3, 0.5, 0.2, 0.9, 0.4]);
        let p = optimal_schedule(&c, 5.0, 5.0, Objective::Privacy).unwrap();
        let zc: f64 = c.risks().iter().product();
        assert!((p.risk(&c) - zc).abs() < 1e-9);
    }

    #[test]
    fn iv_b_hits_closed_form_loss_bound() {
        // κ = 1, μ = n must recover L_C = Π lᵢ.
        let c = setups::lossy();
        let p = optimal_schedule(&c, 1.0, 5.0, Objective::Loss).unwrap();
        let lc: f64 = c.losses().iter().product();
        assert!((p.loss(&c) - lc).abs() < 1e-12);
    }

    #[test]
    fn iv_b_hits_closed_form_delay_bound() {
        let c = setups::delayed();
        let p = optimal_schedule(&c, 1.0, 5.0, Objective::Delay).unwrap();
        assert!((p.delay(&c) - 0.25e-3).abs() < 1e-12);
    }

    #[test]
    fn iv_b_respects_moments() {
        let c = setups::lossy();
        for (kappa, mu) in [(1.0, 1.0), (1.3, 2.7), (2.0, 2.0), (4.9, 5.0), (3.0, 4.5)] {
            for obj in [Objective::Privacy, Objective::Loss, Objective::Delay] {
                let p = optimal_schedule(&c, kappa, mu, obj).unwrap();
                assert!(
                    (p.kappa() - kappa).abs() < 1e-6,
                    "kappa at {kappa},{mu} {obj}"
                );
                assert!((p.mu() - mu).abs() < 1e-6, "mu at {kappa},{mu} {obj}");
            }
        }
    }

    #[test]
    fn iv_b_objective_never_worse_than_fixed_entry() {
        // The LP optimum at integer (κ, μ) = (k, m) is at least as good
        // as any single (k, M) with |M| = m.
        let c = setups::lossy();
        let p = optimal_schedule(&c, 2.0, 3.0, Objective::Loss).unwrap();
        let lp_loss = p.loss(&c);
        for m in Subset::all_nonempty(5).filter(|m| m.len() == 3) {
            let single = crate::schedule::ShareSchedule::singleton(5, 2, m).unwrap();
            assert!(lp_loss <= single.loss(&c) + 1e-9);
        }
    }

    #[test]
    fn iv_d_sustains_optimal_rate() {
        let c = setups::diverse();
        for (kappa, mu) in [(1.0, 1.0), (1.0, 2.5), (2.0, 3.4), (3.0, 4.2), (5.0, 5.0)] {
            let p = optimal_schedule_at_max_rate(&c, kappa, mu, Objective::Privacy).unwrap();
            let rc = optimal::optimal_rate(&c, mu).unwrap();
            assert!(
                (p.max_symbol_rate(&c) - rc).abs() < 1e-6 * rc,
                "rate at kappa={kappa} mu={mu}"
            );
            assert!((p.kappa() - kappa).abs() < 1e-6);
            assert!((p.mu() - mu).abs() < 1e-6, "implied mu at {kappa},{mu}");
        }
    }

    #[test]
    fn iv_d_usage_matches_utilization() {
        let c = setups::diverse();
        let mu = 3.0;
        let p = optimal_schedule_at_max_rate(&c, 2.0, mu, Objective::Loss).unwrap();
        let rc = optimal::optimal_rate(&c, mu).unwrap();
        for (i, ch) in c.iter().enumerate() {
            let want = (ch.rate() / rc).min(1.0);
            assert!(
                (p.channel_usage(i) - want).abs() < 1e-6,
                "channel {i} usage"
            );
        }
    }

    #[test]
    fn iv_d_costs_at_least_iv_b() {
        // Adding the rate constraint can only worsen (or tie) the optimum.
        let c = setups::lossy();
        for obj in [Objective::Privacy, Objective::Loss, Objective::Delay] {
            let free = optimal_schedule(&c, 2.0, 3.0, obj).unwrap();
            let pinned = optimal_schedule_at_max_rate(&c, 2.0, 3.0, obj).unwrap();
            let (f, p) = match obj {
                Objective::Privacy => (free.risk(&c), pinned.risk(&c)),
                Objective::Loss => (free.loss(&c), pinned.loss(&c)),
                Objective::Delay => (free.delay(&c), pinned.delay(&c)),
            };
            assert!(p >= f - 1e-9, "{obj}: pinned {p} better than free {f}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        let c = setups::diverse();
        for (kappa, mu) in [(0.5, 2.0), (2.0, 1.0), (1.0, 6.0), (f64::NAN, 2.0)] {
            assert!(optimal_schedule(&c, kappa, mu, Objective::Privacy).is_err());
            assert!(optimal_schedule_at_max_rate(&c, kappa, mu, Objective::Privacy).is_err());
        }
    }

    #[test]
    fn objective_display() {
        assert_eq!(Objective::Privacy.to_string(), "privacy");
        assert_eq!(Objective::Loss.to_string(), "loss");
        assert_eq!(Objective::Delay.to_string(), "delay");
    }

    #[test]
    fn weighted_extremes_recover_single_objectives() {
        let c = setups::lossy();
        let (kappa, mu) = (2.0, 3.0);
        // All weight on loss == the loss objective.
        let w = Weights {
            risk: 0.0,
            loss: 1.0,
            delay: 0.0,
        };
        let weighted = optimal_schedule_weighted(&c, kappa, mu, w).unwrap();
        let single = optimal_schedule(&c, kappa, mu, Objective::Loss).unwrap();
        assert!((weighted.loss(&c) - single.loss(&c)).abs() < 1e-9);
        // All weight on risk == the privacy objective.
        let w = Weights {
            risk: 1.0,
            loss: 0.0,
            delay: 0.0,
        };
        let weighted = optimal_schedule_weighted(&c, kappa, mu, w).unwrap();
        let single = optimal_schedule(&c, kappa, mu, Objective::Privacy).unwrap();
        assert!((weighted.risk(&c) - single.risk(&c)).abs() < 1e-9);
    }

    #[test]
    fn weighted_combination_bounded_by_extremes() {
        // The composite optimum's weighted cost is at most the cost of
        // either single-objective optimum under the same weights.
        let c = setups::lossy();
        let w = Weights {
            risk: 1.0,
            loss: 4.0,
            delay: 0.0,
        };
        let combo = optimal_schedule_weighted(&c, 2.0, 3.5, w).unwrap();
        let cost = |s: &crate::ShareSchedule| w.risk * s.risk(&c) + w.loss * s.loss(&c);
        let z_opt = optimal_schedule(&c, 2.0, 3.5, Objective::Privacy).unwrap();
        let l_opt = optimal_schedule(&c, 2.0, 3.5, Objective::Loss).unwrap();
        assert!(cost(&combo) <= cost(&z_opt) + 1e-9);
        assert!(cost(&combo) <= cost(&l_opt) + 1e-9);
    }

    #[test]
    fn weighted_at_max_rate_sustains_rate() {
        let c = setups::diverse();
        let mu = 3.2;
        let w = Weights {
            risk: 1.0,
            loss: 1.0,
            delay: 1.0,
        }
        .normalized_for(&c);
        let p = optimal_schedule_weighted_at_max_rate(&c, 2.0, mu, w).unwrap();
        let rc = optimal::optimal_rate(&c, mu).unwrap();
        assert!((p.max_symbol_rate(&c) - rc).abs() < 1e-6 * rc);
        assert!((p.kappa() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn weights_validation() {
        let c = setups::lossy();
        let bad = [
            Weights {
                risk: 0.0,
                loss: 0.0,
                delay: 0.0,
            },
            Weights {
                risk: -1.0,
                loss: 1.0,
                delay: 0.0,
            },
            Weights {
                risk: f64::NAN,
                loss: 1.0,
                delay: 0.0,
            },
        ];
        for w in bad {
            assert!(optimal_schedule_weighted(&c, 2.0, 3.0, w).is_err());
            assert!(optimal_schedule_weighted_at_max_rate(&c, 2.0, 3.0, w).is_err());
        }
    }

    #[test]
    fn normalized_weights_scale_delay() {
        let c = setups::delayed(); // max delay 12.5 ms
        let w = Weights {
            risk: 1.0,
            loss: 1.0,
            delay: 1.0,
        }
        .normalized_for(&c);
        assert!((w.delay - 80.0).abs() < 1e-9);
        assert_eq!(w.risk, 1.0);
        // No positive delay: weights unchanged.
        let c0 = setups::diverse();
        let w0 = Weights {
            risk: 1.0,
            loss: 1.0,
            delay: 1.0,
        }
        .normalized_for(&c0);
        assert_eq!(w0.delay, 1.0);
    }

    #[test]
    fn lp_never_worse_than_theorem5_feasible_point() {
        // The Theorem 5 construction is a feasible point of the IV-B
        // program, so the LP optimum must weakly beat it for every
        // objective across a (kappa, mu) grid.
        let c = setups::lossy();
        let d = setups::delayed();
        let mut kappa = 1.0;
        while kappa <= 5.0 {
            let mut mu = kappa;
            while mu <= 5.0 {
                let constructed = crate::micss::theorem5_schedule(5, kappa, mu).unwrap();
                for obj in [Objective::Privacy, Objective::Loss, Objective::Delay] {
                    let set = if obj == Objective::Delay { &d } else { &c };
                    let lp = optimal_schedule(set, kappa, mu, obj).unwrap();
                    let (a, b) = match obj {
                        Objective::Privacy => (lp.risk(set), constructed.risk(set)),
                        Objective::Loss => (lp.loss(set), constructed.loss(set)),
                        Objective::Delay => (lp.delay(set), constructed.delay(set)),
                    };
                    assert!(
                        a <= b + 1e-9,
                        "{obj} at ({kappa}, {mu}): lp {a} vs constructed {b}"
                    );
                }
                mu += 0.7;
            }
            kappa += 0.7;
        }
    }

    #[test]
    fn objective_cost_dispatch() {
        let c = setups::lossy();
        let m = Subset::from_indices(&[0, 1]);
        assert_eq!(Objective::Privacy.cost(&c, 1, m), subset::risk(&c, 1, m));
        assert_eq!(Objective::Loss.cost(&c, 1, m), subset::loss(&c, 1, m));
        assert_eq!(Objective::Delay.cost(&c, 1, m), subset::delay(&c, 1, m));
    }
}
