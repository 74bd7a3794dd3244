//! Tradeoff surfaces and Pareto frontiers over the `(κ, μ)` parameter
//! space.
//!
//! The paper's thesis is that protocol parameters should be *chosen* by
//! looking at the achievable tradeoffs. This module computes those
//! tradeoffs wholesale: [`surface`] evaluates, for a grid of `(κ, μ)`
//! points, the Theorem 4 optimal rate together with the best achievable
//! risk, loss, and delay of max-rate schedules (§IV-D), and
//! [`pareto_front`] filters any point collection down to its
//! non-dominated frontier.
//!
//! # Examples
//!
//! ```
//! use mcss_core::{pareto, setups};
//!
//! let channels = setups::lossy();
//! let surface = pareto::surface(&channels, 1.0, 1.0)?;
//! let front = pareto::pareto_front(&surface);
//! assert!(!front.is_empty());
//! // The frontier is a subset of the surface.
//! assert!(front.len() <= surface.len());
//! # Ok::<(), mcss_core::ModelError>(())
//! ```

use crate::cache::SubsetMetricCache;
use crate::channel::ChannelSet;
use crate::error::ModelError;
use crate::lp_schedule::{self, Objective};
use crate::optimal;
use crate::schedule::ScheduleEntry;

/// One evaluated operating point: the parameters and the best value of
/// each property achievable at the Theorem 4 maximum rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Mean threshold.
    pub kappa: f64,
    /// Mean multiplicity.
    pub mu: f64,
    /// Theorem 4 optimal rate (source symbols per unit time).
    pub rate: f64,
    /// Best schedule risk `Z(p)` among max-rate schedules.
    pub risk: f64,
    /// Best schedule loss `L(p)` among max-rate schedules.
    pub loss: f64,
    /// Best schedule delay `D(p)` among max-rate schedules.
    pub delay: f64,
}

impl TradeoffPoint {
    /// Whether `self` dominates `other`: at least as good in every
    /// dimension (rate higher-or-equal; risk, loss, delay
    /// lower-or-equal) and strictly better in at least one.
    #[must_use]
    pub fn dominates(&self, other: &TradeoffPoint) -> bool {
        let ge = self.rate >= other.rate
            && self.risk <= other.risk
            && self.loss <= other.loss
            && self.delay <= other.delay;
        let strict = self.rate > other.rate
            || self.risk < other.risk
            || self.loss < other.loss
            || self.delay < other.delay;
        ge && strict
    }
}

/// Evaluates the tradeoff surface over the `(κ, μ)` grid with the given
/// steps (`1 ≤ κ ≤ μ ≤ n`). Each point solves three §IV-D linear
/// programs, so a 0.5-step grid on five channels runs ~45 × 3 LPs.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] if a step is not positive and
/// finite; LP errors cannot occur for valid grids.
pub fn surface(
    channels: &ChannelSet,
    kappa_step: f64,
    mu_step: f64,
) -> Result<Vec<TradeoffPoint>, ModelError> {
    if !(kappa_step.is_finite() && mu_step.is_finite()) || kappa_step <= 0.0 || mu_step <= 0.0 {
        return Err(ModelError::InvalidParameters {
            kappa: kappa_step,
            mu: mu_step,
            n: Some(channels.len()),
        });
    }
    let n = channels.len() as f64;
    // One table and one entry set for the whole grid: every LP cost
    // vector and every schedule-property evaluation below is a lookup.
    let cache = SubsetMetricCache::new(channels);
    let entries = lp_schedule::all_entries(channels.len());
    let mut points = Vec::new();
    let mut kappa = 1.0;
    while kappa <= n + 1e-9 {
        let mut mu = kappa;
        while mu <= n + 1e-9 {
            points.push(point_on(
                channels,
                &cache,
                &entries,
                kappa.min(n),
                mu.min(n),
            )?);
            mu += mu_step;
        }
        kappa += kappa_step;
    }
    Ok(points)
}

/// Evaluates a single `(κ, μ)` operating point.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`.
pub fn point(channels: &ChannelSet, kappa: f64, mu: f64) -> Result<TradeoffPoint, ModelError> {
    let cache = SubsetMetricCache::new(channels);
    let entries = lp_schedule::all_entries(channels.len());
    point_on(channels, &cache, &entries, kappa, mu)
}

fn point_on(
    channels: &ChannelSet,
    cache: &SubsetMetricCache,
    entries: &[ScheduleEntry],
    kappa: f64,
    mu: f64,
) -> Result<TradeoffPoint, ModelError> {
    // The §IV-D optimum of one property, and that property of it.
    let best = |objective: Objective| {
        let w = objective.weights();
        lp_schedule::solve(channels, cache, entries, kappa, mu, w, true)
            .map(|p| p.expect(channels.len(), |k, m| w.cost(cache, k, m)))
    };
    Ok(TradeoffPoint {
        kappa,
        mu,
        rate: optimal::optimal_rate(channels, mu)?,
        risk: best(Objective::Privacy)?,
        loss: best(Objective::Loss)?,
        delay: best(Objective::Delay)?,
    })
}

/// Filters a point collection to its Pareto frontier (non-dominated
/// points), preserving input order.
#[must_use]
pub fn pareto_front(points: &[TradeoffPoint]) -> Vec<TradeoffPoint> {
    points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups;

    fn pt(rate: f64, risk: f64, loss: f64, delay: f64) -> TradeoffPoint {
        TradeoffPoint {
            kappa: 1.0,
            mu: 1.0,
            rate,
            risk,
            loss,
            delay,
        }
    }

    #[test]
    fn dominance_semantics() {
        let a = pt(10.0, 0.1, 0.1, 1.0);
        let better_rate = pt(11.0, 0.1, 0.1, 1.0);
        let worse_risk = pt(10.0, 0.2, 0.1, 1.0);
        let incomparable = pt(12.0, 0.2, 0.1, 1.0);
        assert!(better_rate.dominates(&a));
        assert!(!a.dominates(&better_rate));
        assert!(a.dominates(&worse_risk));
        assert!(!incomparable.dominates(&a));
        assert!(!a.dominates(&incomparable));
        // Equal points do not dominate each other (no strict improvement).
        assert!(!a.dominates(&a));
    }

    #[test]
    fn front_removes_dominated() {
        let points = [
            pt(10.0, 0.5, 0.5, 1.0),
            pt(10.0, 0.4, 0.5, 1.0), // dominates the first
            pt(5.0, 0.1, 0.5, 1.0),  // incomparable with the second
            pt(4.0, 0.2, 0.6, 2.0),  // dominated by the third
        ];
        let front = pareto_front(&points);
        assert_eq!(front.len(), 2);
        assert!(front.contains(&points[1]));
        assert!(front.contains(&points[2]));
    }

    #[test]
    fn surface_covers_grid_and_is_sane() {
        let channels = setups::lossy();
        let s = surface(&channels, 1.0, 1.0).unwrap();
        // κ in 1..=5, μ in κ..=5 step 1 → 15 points.
        assert_eq!(s.len(), 15);
        for p in &s {
            assert!(p.kappa >= 1.0 && p.kappa <= p.mu && p.mu <= 5.0);
            assert!(p.rate > 0.0);
            assert!((0.0..=1.0).contains(&p.risk));
            assert!((0.0..=1.0).contains(&p.loss));
            assert!(p.delay >= 0.0);
        }
        // The max-rate corner (κ = μ = 1) has the highest rate.
        let corner = s.iter().find(|p| p.kappa == 1.0 && p.mu == 1.0).unwrap();
        assert!(s.iter().all(|p| p.rate <= corner.rate + 1e-9));
    }

    #[test]
    fn surface_rate_matches_theorem4() {
        let channels = setups::diverse();
        let s = surface(&channels, 2.0, 1.0).unwrap();
        for p in &s {
            let rc = optimal::optimal_rate(&channels, p.mu).unwrap();
            assert!((p.rate - rc).abs() < 1e-9);
        }
    }

    #[test]
    fn frontier_of_real_surface_nonempty_and_consistent() {
        let channels = setups::lossy();
        let s = surface(&channels, 1.0, 0.5).unwrap();
        let front = pareto_front(&s);
        assert!(!front.is_empty());
        for p in &front {
            assert!(!s.iter().any(|q| q.dominates(p)));
        }
        // Points off the frontier are dominated by someone on it…
        for p in &s {
            if !front.iter().any(|f| f == p) {
                assert!(front.iter().any(|f| f.dominates(p)) || s.iter().any(|q| q.dominates(p)));
            }
        }
    }

    #[test]
    fn cached_point_matches_direct_evaluation() {
        // Surface points read metrics from the table; re-evaluating the
        // same schedules with the per-call §IV-A formulas must agree.
        let channels = setups::delayed();
        let p = point(&channels, 2.0, 3.0).unwrap();
        let risk =
            lp_schedule::optimal_schedule_at_max_rate(&channels, 2.0, 3.0, Objective::Privacy)
                .unwrap()
                .risk(&channels);
        let delay =
            lp_schedule::optimal_schedule_at_max_rate(&channels, 2.0, 3.0, Objective::Delay)
                .unwrap()
                .delay(&channels);
        assert!((p.risk - risk).abs() <= 1e-12);
        assert!((p.delay - delay).abs() <= 1e-12 * delay.abs().max(1.0));
    }

    #[test]
    fn invalid_steps_rejected() {
        let channels = setups::lossy();
        assert!(surface(&channels, 0.0, 1.0).is_err());
        assert!(surface(&channels, 1.0, -0.5).is_err());
        assert!(surface(&channels, f64::NAN, 1.0).is_err());
    }
}
