//! Limited share schedules compatible with the MICSS threat model
//! (§IV-E, Theorem 5).
//!
//! MICSS and Blakley's courier mode assume an adversary who always
//! eavesdrops a *fixed* set of channels; a fractional mean threshold `κ`
//! is then unsound, because individual symbols may use `k < κ`. The fix
//! is to limit the schedule to the entry set
//!
//! `𝓜' = {(k, M) ∈ 𝓜 : k ≥ ⌊κ⌋, |M| ≥ ⌊μ⌋}`,
//!
//! guaranteeing every symbol a threshold of at least `⌊κ⌋`. Theorem 5
//! shows this costs nothing in achievable `(κ, μ)` pairs — the
//! constructive proof is [`theorem5_schedule`] — but §IV-E's
//! counterexample shows optimal privacy/loss/delay may be strictly worse;
//! [`optimal_limited_schedule`] lets you measure that gap.

use crate::cache::SubsetMetricCache;
use crate::channel::ChannelSet;
use crate::error::{check_params, ModelError};
use crate::lp_schedule::{self, Objective};
use crate::schedule::{ScheduleBuilder, ScheduleEntry, ShareSchedule};
use crate::subset::Subset;

/// The limited entry set `𝓜'` for parameters `κ` and `μ` over `n`
/// channels: entries with `k ≥ ⌊κ⌋` and `|M| ≥ ⌊μ⌋`.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`.
///
/// # Examples
///
/// ```
/// use mcss_core::micss;
///
/// let entries = micss::limited_entries(3, 2.0, 3.0)?;
/// assert!(entries.iter().all(|e| e.k() >= 2 && e.multiplicity() >= 3));
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn limited_entries(n: usize, kappa: f64, mu: f64) -> Result<Vec<ScheduleEntry>, ModelError> {
    check_params(kappa, mu, Some(n))?;
    let kf = kappa.floor() as u8;
    let mf = mu.floor() as usize;
    Ok(lp_schedule::all_entries(n)
        .into_iter()
        .filter(|e| e.k() >= kf && e.multiplicity() >= mf)
        .collect())
}

/// The Theorem 5 construction: a valid limited schedule over `𝓜'` with
/// mean threshold exactly `κ` and mean multiplicity exactly `μ`.
///
/// The construction mixes the four corner entries `(k, m)` with
/// `k ∈ {⌊κ⌋, ⌈κ⌉}` and `m ∈ {⌊μ⌋, ⌈μ⌉}` over prefix subsets
/// `{0, …, m−1}`. When `⌊κ⌋ = ⌊μ⌋` an upper coupling removes the
/// invalid corner `k = ⌈κ⌉, m = ⌊μ⌋` (possible because `κ ≤ μ` makes the
/// fractional parts ordered).
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`.
///
/// # Examples
///
/// ```
/// use mcss_core::micss;
///
/// let p = micss::theorem5_schedule(5, 2.3, 3.7)?;
/// assert!((p.kappa() - 2.3).abs() < 1e-9);
/// assert!((p.mu() - 3.7).abs() < 1e-9);
/// // Every symbol's threshold is at least ⌊κ⌋ = 2.
/// assert!(p.entries().iter().all(|(e, _)| e.k() >= 2));
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn theorem5_schedule(n: usize, kappa: f64, mu: f64) -> Result<ShareSchedule, ModelError> {
    check_params(kappa, mu, Some(n))?;
    let kf = kappa.floor() as u8;
    let a = kappa - f64::from(kf); // P[k = kf + 1]
    let mf = mu.floor() as usize;
    let b = mu - mf as f64; // P[m = mf + 1]
    let sub_lo = Subset::full(mf);
    let sub_hi = Subset::full((mf + 1).min(n));
    let mut builder = ScheduleBuilder::new(n);
    let mut add = |k: u8, m: Subset, p: f64| -> Result<(), ModelError> {
        if p > 1e-15 {
            builder.push(k, m, p)?;
        }
        Ok(())
    };
    if kf as usize == mf && a > 1e-15 {
        // Same integer cell: corner (kf+1, mf) is invalid (k > m).
        // Upper coupling: put all of P[k = kf+1] on m = mf+1.
        debug_assert!(a <= b + 1e-12, "kappa <= mu forces a <= b in same cell");
        add(kf + 1, sub_hi, a)?;
        add(kf, sub_hi, (b - a).max(0.0))?;
        add(kf, sub_lo, 1.0 - b)?;
    } else {
        // Independent product over the 2×2 corners; all satisfy k ≤ m.
        add(kf, sub_lo, (1.0 - a) * (1.0 - b))?;
        add(kf, sub_hi, (1.0 - a) * b)?;
        add(kf + 1, sub_lo, a * (1.0 - b))?;
        add(kf + 1, sub_hi, a * b)?;
    }
    builder.build_with_tolerance(1e-9)
}

/// The §IV-B program restricted to the limited entry set `𝓜'`: the best
/// privacy/loss/delay achievable *under the MICSS threat model* at
/// `(κ, μ)`.
///
/// Comparing this against
/// [`optimal_schedule`](crate::lp_schedule::optimal_schedule) quantifies
/// the §IV-E observation that limiting the schedule can strictly worsen
/// the optimum (rate is unaffected, by Theorem 4).
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ ≤ n`;
/// [`ModelError::Lp`] if the restricted program is infeasible (cannot
/// happen for valid parameters, by Theorem 5).
pub fn optimal_limited_schedule(
    channels: &ChannelSet,
    kappa: f64,
    mu: f64,
    objective: Objective,
) -> Result<ShareSchedule, ModelError> {
    let entries = limited_entries(channels.len(), kappa, mu)?;
    let cache = SubsetMetricCache::new(channels);
    let weights = objective.weights();
    lp_schedule::solve(channels, &cache, &entries, kappa, mu, weights, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_schedule::optimal_schedule;
    use crate::setups;

    #[test]
    fn limited_entries_filtering() {
        let es = limited_entries(5, 2.5, 3.5).unwrap();
        assert!(!es.is_empty());
        for e in &es {
            assert!(e.k() >= 2);
            assert!(e.multiplicity() >= 3);
            assert!(e.k() as usize <= e.multiplicity());
        }
        // κ = μ = 1 leaves the full set.
        assert_eq!(
            limited_entries(3, 1.0, 1.0).unwrap().len(),
            lp_schedule::all_entries(3).len()
        );
    }

    #[test]
    fn theorem5_exact_moments_across_grid() {
        for n in [2usize, 3, 5] {
            let nf = n as f64;
            let mut kappa = 1.0;
            while kappa <= nf {
                let mut mu = kappa;
                while mu <= nf {
                    let p = theorem5_schedule(n, kappa, mu).unwrap();
                    assert!(
                        (p.kappa() - kappa).abs() < 1e-9,
                        "kappa {kappa} mu {mu} n {n}: got {}",
                        p.kappa()
                    );
                    assert!((p.mu() - mu).abs() < 1e-9);
                    let kf = kappa.floor() as u8;
                    let mf = mu.floor() as usize;
                    for (e, _) in p.entries() {
                        assert!(e.k() >= kf, "floor threshold violated");
                        assert!(e.multiplicity() >= mf, "floor multiplicity violated");
                        assert!(e.k() as usize <= e.multiplicity());
                    }
                    mu += 0.3;
                }
                kappa += 0.3;
            }
        }
    }

    #[test]
    fn theorem5_integer_corners() {
        let p = theorem5_schedule(5, 5.0, 5.0).unwrap();
        assert_eq!(p.entries().len(), 1);
        assert_eq!(p.entries()[0].0.k(), 5);
        let p = theorem5_schedule(5, 1.0, 1.0).unwrap();
        assert_eq!(p.entries().len(), 1);
        assert_eq!(p.entries()[0].0.multiplicity(), 1);
    }

    #[test]
    fn theorem5_same_cell_coupling() {
        // κ = 2.3, μ = 2.6 share the integer cell [2, 3).
        let p = theorem5_schedule(5, 2.3, 2.6).unwrap();
        assert!((p.kappa() - 2.3).abs() < 1e-9);
        assert!((p.mu() - 2.6).abs() < 1e-9);
        // No entry may have k = 3 with m = 2.
        for (e, _) in p.entries() {
            assert!(e.k() as usize <= e.multiplicity());
        }
    }

    #[test]
    fn paper_counterexample_delay_gap() {
        // §IV-E: channels with d = (2, 9, 10), κ = 2, μ = 3. The only
        // limited schedule is p(2, C) = 1 with delay 9; the unrestricted
        // optimum mixes (1, C) and (3, C) for delay 6.
        let c = setups::micss_counterexample();
        let limited = optimal_limited_schedule(&c, 2.0, 3.0, Objective::Delay).unwrap();
        assert!(
            (limited.delay(&c) - 9.0).abs() < 1e-9,
            "{}",
            limited.delay(&c)
        );
        let free = optimal_schedule(&c, 2.0, 3.0, Objective::Delay).unwrap();
        assert!((free.delay(&c) - 6.0).abs() < 1e-9, "{}", free.delay(&c));
    }

    #[test]
    fn limited_never_beats_unrestricted() {
        let c = setups::lossy();
        for (kappa, mu) in [(1.5, 2.5), (2.0, 3.0), (2.5, 4.0), (3.3, 4.7)] {
            for obj in [Objective::Privacy, Objective::Loss, Objective::Delay] {
                let lim = optimal_limited_schedule(&c, kappa, mu, obj).unwrap();
                let free = optimal_schedule(&c, kappa, mu, obj).unwrap();
                let (vl, vf) = match obj {
                    Objective::Privacy => (lim.risk(&c), free.risk(&c)),
                    Objective::Loss => (lim.loss(&c), free.loss(&c)),
                    Objective::Delay => (lim.delay(&c), free.delay(&c)),
                };
                assert!(
                    vl >= vf - 1e-9,
                    "limited beat unrestricted for {obj} at ({kappa}, {mu})"
                );
            }
        }
    }

    #[test]
    fn unlimited_limit_is_the_unrestricted_program() {
        // At κ = μ = 1 the limited set 𝓜' is all of 𝓜: the two entry
        // points are one call and must reach one optimum.
        for c in [setups::lossy(), setups::delayed()] {
            for obj in [Objective::Privacy, Objective::Loss, Objective::Delay] {
                let lim = optimal_limited_schedule(&c, 1.0, 1.0, obj).unwrap();
                let free = optimal_schedule(&c, 1.0, 1.0, obj).unwrap();
                let value = |p: &ShareSchedule| match obj {
                    Objective::Privacy => p.risk(&c),
                    Objective::Loss => p.loss(&c),
                    Objective::Delay => p.delay(&c),
                };
                let (vl, vf) = (value(&lim), value(&free));
                assert!((vl - vf).abs() <= 1e-12 * vf.abs().max(1.0), "{obj}");
            }
        }
    }

    #[test]
    fn hard_guarantee_floor_threshold() {
        // Every limited-schedule symbol tolerates ⌊κ⌋ − 1 interceptions.
        let p = optimal_limited_schedule(&setups::lossy(), 2.7, 4.0, Objective::Loss).unwrap();
        for (e, _) in p.entries() {
            assert!(e.k() >= 2);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(theorem5_schedule(5, 0.9, 2.0).is_err());
        assert!(theorem5_schedule(5, 3.0, 2.0).is_err());
        assert!(theorem5_schedule(5, 1.0, 5.5).is_err());
        assert!(limited_entries(5, f64::NAN, 2.0).is_err());
    }
}
