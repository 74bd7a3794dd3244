//! Closed-form optimality results: §IV-B full optima and the §IV-C rate
//! theorems (Theorems 1–4).

use crate::channel::ChannelSet;
use crate::error::{check_params, ModelError};
use crate::subset::Subset;

/// The fully optimized overall risk `Z_C = Π zᵢ` (§IV-B), achieved by the
/// schedule `p(n, C) = 1` — every symbol needs all `n` shares observed.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// let c = setups::diverse_with_risk(&[0.5; 5]);
/// assert!((optimal::best_risk(&c) - 0.5f64.powi(5)).abs() < 1e-15);
/// ```
#[must_use]
pub fn best_risk(channels: &ChannelSet) -> f64 {
    channels.iter().map(|c| c.risk()).product()
}

/// The fully optimized overall loss `L_C = Π lᵢ` (§IV-B), achieved by
/// `p(1, C) = 1` — a symbol is lost only if every share is lost.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// let c = setups::lossy();
/// let expect: f64 = setups::LOSSY_LOSS.iter().product();
/// assert!((optimal::best_loss(&c) - expect).abs() < 1e-18);
/// ```
#[must_use]
pub fn best_loss(channels: &ChannelSet) -> f64 {
    channels.iter().map(|c| c.loss()).product()
}

/// The fully optimized overall delay `D_C` (§IV-B): with `κ = 1` and
/// `μ = n`, the expected delay is a weighted average over channels in
/// ascending delay order, each weighted by the probability that its share
/// arrives while every faster share is lost, conditioned on delivery:
///
/// `D_C = [Σ_a (1−λ(a)) δ(a) Π_{b<a} λ(b)] / (1 − Π lᵢ)`.
///
/// Equivalent to the subset delay `d(1, C)`; both are exercised in tests.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// // Lossless Delayed setup: D_C is simply the smallest delay.
/// assert_eq!(optimal::best_delay(&setups::delayed()), 0.25e-3);
/// ```
#[must_use]
pub fn best_delay(channels: &ChannelSet) -> f64 {
    let mut order: Vec<usize> = (0..channels.len()).collect();
    order.sort_by(|&a, &b| {
        channels
            .channel(a)
            .delay()
            .partial_cmp(&channels.channel(b).delay())
            .expect("delays are finite")
    });
    let all_lost: f64 = channels.iter().map(|c| c.loss()).product();
    let mut acc = 0.0;
    let mut faster_all_lost = 1.0;
    for &i in &order {
        let ch = channels.channel(i);
        acc += (1.0 - ch.loss()) * ch.delay() * faster_all_lost;
        faster_all_lost *= ch.loss();
    }
    acc / (1.0 - all_lost)
}

/// The fully optimized overall rate `R_C = Σ rᵢ` (§IV-C), achieved at
/// `κ = μ = 1` with rate-proportional striping.
#[must_use]
pub fn best_rate(channels: &ChannelSet) -> f64 {
    channels.total_rate()
}

/// `1 ≤ μ ≤ n`: the parameter rule with the threshold out of the picture.
fn validate_mu(channels: &ChannelSet, mu: f64) -> Result<(), ModelError> {
    check_params(1.0, mu, Some(channels.len()))
}

/// Theorem 1: a lower bound on the optimal multichannel rate — the rate
/// of the channel with the `⌈μ⌉`-th highest individual rate.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ μ ≤ n`.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// // Diverse rates (5,20,60,65,100): ⌈2.5⌉ = 3rd highest is 60.
/// let bound = optimal::rate_lower_bound(&setups::diverse(), 2.5)?;
/// assert_eq!(bound, 60.0);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn rate_lower_bound(channels: &ChannelSet, mu: f64) -> Result<f64, ModelError> {
    validate_mu(channels, mu)?;
    let mut rates = channels.rates();
    rates.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
    let idx = (mu.ceil() as usize).min(rates.len());
    Ok(rates[idx - 1])
}

/// Theorem 2: the largest `μ` at which every channel can still be fully
/// utilized — the ratio of total rate to the fastest channel's rate.
///
/// For identical channels this is `n` (Corollary 1): any valid `μ` keeps
/// full utilization.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// // Diverse: 250 / 100 = 2.5.
/// assert_eq!(optimal::full_utilization_mu(&setups::diverse()), 2.5);
/// assert_eq!(optimal::full_utilization_mu(&setups::identical(100.0)), 5.0);
/// ```
#[must_use]
pub fn full_utilization_mu(channels: &ChannelSet) -> f64 {
    channels.total_rate() / channels.max_rate()
}

/// Theorem 4: the optimal multichannel rate for mean multiplicity `μ`,
///
/// `R_C = min_{S ⊆ C, |S| > n − μ}  (Σ_{i∈S} rᵢ) / (μ − n + |S|)`.
///
/// This is the exact closed form; [`optimal_rate_waterfill`] computes the
/// same value by solving the Theorem 3 fixed point and the two are
/// cross-checked in tests.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ μ ≤ n`.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// let c = setups::diverse();
/// // At μ ≤ 2.5 every channel is usable at full rate: R = 250/μ.
/// assert!((optimal::optimal_rate(&c, 2.0)? - 125.0).abs() < 1e-9);
/// // At μ = 5 every symbol uses all channels: the slowest (5) binds.
/// assert!((optimal::optimal_rate(&c, 5.0)? - 5.0).abs() < 1e-9);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
pub fn optimal_rate(channels: &ChannelSet, mu: f64) -> Result<f64, ModelError> {
    validate_mu(channels, mu)?;
    let n = channels.len();
    let mut best = f64::INFINITY;
    for s in Subset::all_nonempty(n) {
        let excess = mu - n as f64 + s.len() as f64;
        if excess <= 0.0 {
            continue;
        }
        let sum: f64 = s.iter().map(|i| channels.channel(i).rate()).sum();
        best = best.min(sum / excess);
    }
    Ok(best)
}

/// Theorem 3 solved directly: the unique `R_C` satisfying the
/// water-filling fixed point `μ = Σ min(rᵢ/R_C, 1)`.
///
/// The right-hand side is continuous and strictly decreasing in `R_C`
/// (while any channel is unsaturated), so the solution is found exactly
/// by walking the piecewise-hyperbolic segments between sorted channel
/// rates.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ μ ≤ n`.
pub fn optimal_rate_waterfill(channels: &ChannelSet, mu: f64) -> Result<f64, ModelError> {
    validate_mu(channels, mu)?;
    let n = channels.len();
    let mut rates = channels.rates();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    // For R in (rates[j-1], rates[j]] … channels with rᵢ ≤ R contribute
    // rᵢ/R; the count above R contributes 1 each:
    //   μ(R) = (n − c) + prefix_sum(c) / R, with c = #{i : rᵢ ≤ R}.
    // Walk segments from the largest rate downward until μ is bracketed.
    let mut prefix = vec![0.0; n + 1];
    for (i, &r) in rates.iter().enumerate() {
        prefix[i + 1] = prefix[i] + r;
    }
    // If μ ≤ total/max (Theorem 2), all channels full: R = total/μ.
    let total = prefix[n];
    let rmax = rates[n - 1];
    if mu * rmax <= total {
        return Ok(total / mu);
    }
    // Otherwise R < rmax: find the segment. For c = #{rᵢ ≤ R}, candidate
    // R = prefix[c] / (μ − (n − c)); valid when R lies in the segment
    // (rates[c−1], rates[c]] — scanning c from n−1 downward.
    for c in (1..n).rev() {
        let denom = mu - (n - c) as f64;
        if denom <= 0.0 {
            break;
        }
        let r = prefix[c] / denom;
        let lo = rates[c - 1];
        let hi = rates[c];
        if r <= hi + 1e-12 && r > lo - 1e-12 {
            return Ok(r);
        }
    }
    // μ = n exactly: every channel in every symbol; slowest binds.
    Ok(rates[0])
}

/// Definition 1: the fully-utilized set `A = {i : rᵢ ≤ R_C}` for the
/// optimal rate at mean multiplicity `μ`.
///
/// Corollary 2 guarantees `|A| > n − μ`.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ μ ≤ n`.
pub fn fully_utilized_set(channels: &ChannelSet, mu: f64) -> Result<Subset, ModelError> {
    let rc = optimal_rate(channels, mu)?;
    let mut s = Subset::EMPTY;
    for (i, ch) in channels.iter().enumerate() {
        if ch.rate() <= rc + 1e-9 {
            s = s.with(i);
        }
    }
    Ok(s)
}

/// The per-channel share budgets `r'ᵢ = min(rᵢ, R_C)` (Equation 4) that
/// achieve the optimal rate at mean multiplicity `μ`.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] unless `1 ≤ μ ≤ n`.
pub fn channel_utilization(channels: &ChannelSet, mu: f64) -> Result<Vec<f64>, ModelError> {
    let rc = optimal_rate(channels, mu)?;
    Ok(channels.iter().map(|c| c.rate().min(rc)).collect())
}

/// Convenience: the best achievable value of each §IV-B property together
/// with the maximum rate, the four corners of the tradeoff space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    /// `Z_C`: minimum achievable overall risk.
    pub risk: f64,
    /// `L_C`: minimum achievable overall loss.
    pub loss: f64,
    /// `D_C`: minimum achievable overall delay.
    pub delay: f64,
    /// `R_C` at `μ = 1`: maximum achievable overall rate.
    pub rate: f64,
}

/// Computes the full optimality envelope of a channel set.
///
/// # Examples
///
/// ```
/// use mcss_core::{setups, optimal};
/// let e = optimal::envelope(&setups::lossy());
/// assert!(e.loss < 1e-9 && e.rate == 250.0);
/// ```
#[must_use]
pub fn envelope(channels: &ChannelSet) -> Envelope {
    Envelope {
        risk: best_risk(channels),
        loss: best_loss(channels),
        delay: best_delay(channels),
        rate: best_rate(channels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::setups;
    use crate::subset;
    use proptest::prelude::*;

    fn chans(rates: &[f64]) -> ChannelSet {
        ChannelSet::new(
            rates
                .iter()
                .map(|&r| Channel::with_rate(r).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn best_risk_is_product() {
        let c = setups::diverse_with_risk(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let expect = 0.1 * 0.2 * 0.3 * 0.4 * 0.5;
        assert!((best_risk(&c) - expect).abs() < 1e-15);
    }

    #[test]
    fn best_delay_matches_subset_formula() {
        // D_C should equal d(1, C) with the full channel set.
        let mixed = ChannelSet::new(vec![
            Channel::new(0.0, 0.3, 5.0, 1.0).unwrap(),
            Channel::new(0.0, 0.1, 1.0, 1.0).unwrap(),
            Channel::new(0.0, 0.6, 2.0, 1.0).unwrap(),
        ])
        .unwrap();
        let via_formula = best_delay(&mixed);
        let via_subset = subset::delay(&mixed, 1, Subset::full(3));
        assert!(
            (via_formula - via_subset).abs() < 1e-12,
            "{via_formula} vs {via_subset}"
        );
    }

    #[test]
    fn best_delay_lossless_is_min() {
        assert_eq!(best_delay(&setups::delayed()), 0.25e-3);
    }

    #[test]
    fn best_delay_weights_by_loss() {
        // Two channels: fast (d=1, l=0.5), slow (d=10, l=0).
        // D = [0.5·1 + 0.5·1.0·10] / 1 = 0.5 + 5 = 5.5
        let c = ChannelSet::new(vec![
            Channel::new(0.0, 0.5, 1.0, 1.0).unwrap(),
            Channel::new(0.0, 0.0, 10.0, 1.0).unwrap(),
        ])
        .unwrap();
        assert!((best_delay(&c) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn theorem1_bound_holds() {
        let c = setups::diverse();
        for mu10 in 10..=50 {
            let mu = f64::from(mu10) / 10.0;
            let bound = rate_lower_bound(&c, mu).unwrap();
            let rc = optimal_rate(&c, mu).unwrap();
            assert!(
                rc >= bound - 1e-9,
                "Theorem 1 violated at mu={mu}: rc={rc} < bound={bound}"
            );
        }
    }

    #[test]
    fn theorem2_threshold_exact() {
        let c = setups::diverse();
        let mu_star = full_utilization_mu(&c); // 2.5
                                               // At μ ≤ μ*, R_C = total/μ (all channels full).
        let r = optimal_rate(&c, mu_star).unwrap();
        assert!((r - 250.0 / 2.5).abs() < 1e-9);
        // Just above μ*, the rate drops below total/μ.
        let r_above = optimal_rate(&c, 2.6).unwrap();
        assert!(r_above < 250.0 / 2.6 - 1e-9);
    }

    #[test]
    fn corollary1_identical_channels() {
        let c = setups::identical(100.0);
        assert_eq!(full_utilization_mu(&c), 5.0);
        for mu10 in 10..=50 {
            let mu = f64::from(mu10) / 10.0;
            let r = optimal_rate(&c, mu).unwrap();
            assert!(
                (r - 500.0 / mu).abs() < 1e-9,
                "identical channels should follow 500/mu at mu={mu}"
            );
        }
    }

    #[test]
    fn figure2_rates() {
        // r = (3, 4, 8): total 15, max 8 ⇒ full utilization to μ = 1.875.
        let c = setups::figure2();
        assert!((full_utilization_mu(&c) - 1.875).abs() < 1e-12);
        assert!((optimal_rate(&c, 1.0).unwrap() - 15.0).abs() < 1e-9);
        assert!((optimal_rate(&c, 1.875).unwrap() - 8.0).abs() < 1e-9);
        // μ = 3: all channels every symbol ⇒ slowest binds at 3.
        assert!((optimal_rate(&c, 3.0).unwrap() - 3.0).abs() < 1e-9);
        // μ = 2: S = {0,1} gives 7/1 = 7; S = C gives 15/2 = 7.5 ⇒ 7.
        assert!((optimal_rate(&c, 2.0).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_agrees_with_theorem4_on_paper_setups() {
        for c in [
            setups::diverse(),
            setups::identical(100.0),
            setups::figure2(),
        ] {
            let n = c.len() as f64;
            let mut mu = 1.0;
            while mu <= n {
                let a = optimal_rate(&c, mu).unwrap();
                let b = optimal_rate_waterfill(&c, mu).unwrap();
                assert!((a - b).abs() < 1e-6, "mu={mu}: thm4={a} waterfill={b}");
                mu += 0.05;
            }
        }
    }

    #[test]
    fn utilization_satisfies_theorem3() {
        let c = setups::diverse();
        for mu10 in 10..=50 {
            let mu = f64::from(mu10) / 10.0;
            let rc = optimal_rate(&c, mu).unwrap();
            let sum: f64 = c.iter().map(|ch| (ch.rate() / rc).min(1.0)).sum();
            assert!((sum - mu).abs() < 1e-9, "theorem 3 identity at mu={mu}");
        }
    }

    #[test]
    fn corollary2_fully_utilized_set_size() {
        let c = setups::diverse();
        for mu10 in 10..=50 {
            let mu = f64::from(mu10) / 10.0;
            let a = fully_utilized_set(&c, mu).unwrap();
            assert!(
                a.len() as f64 > c.len() as f64 - mu - 1e-9,
                "corollary 2 at mu={mu}: |A|={}",
                a.len()
            );
        }
    }

    #[test]
    fn utilization_vector_sums_to_mu_rc() {
        let c = setups::diverse();
        let mu = 3.3;
        let rc = optimal_rate(&c, mu).unwrap();
        let util = channel_utilization(&c, mu).unwrap();
        let total: f64 = util.iter().sum();
        assert!((total - mu * rc).abs() < 1e-9);
    }

    #[test]
    fn invalid_mu_rejected() {
        let c = setups::diverse();
        for bad in [0.5, 5.1, f64::NAN, -1.0] {
            assert!(optimal_rate(&c, bad).is_err(), "mu={bad} accepted");
            assert!(optimal_rate_waterfill(&c, bad).is_err());
            assert!(rate_lower_bound(&c, bad).is_err());
        }
    }

    #[test]
    fn mu_one_gives_total_rate() {
        let c = chans(&[1.0, 2.0, 3.0]);
        assert!((optimal_rate(&c, 1.0).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn envelope_combines_all() {
        let e = envelope(&setups::lossy());
        assert_eq!(e.rate, 250.0);
        assert!(e.risk > 0.0 && e.loss > 0.0 && e.delay >= 0.0);
    }

    proptest! {
        #[test]
        fn waterfill_equals_theorem4_random(
            rates in proptest::collection::vec(0.1f64..100.0, 1..8),
            mu_frac in 0.0f64..1.0,
        ) {
            let c = chans(&rates);
            let n = c.len() as f64;
            let mu = 1.0 + mu_frac * (n - 1.0);
            let a = optimal_rate(&c, mu).unwrap();
            let b = optimal_rate_waterfill(&c, mu).unwrap();
            prop_assert!((a - b).abs() < 1e-6 * a.max(1.0), "thm4={a} wf={b}");
        }

        #[test]
        fn rate_decreasing_in_mu(
            rates in proptest::collection::vec(0.1f64..100.0, 2..8),
        ) {
            let c = chans(&rates);
            let n = c.len() as f64;
            let mut prev = f64::INFINITY;
            let mut mu = 1.0;
            while mu <= n + 1e-9 {
                let r = optimal_rate(&c, mu.min(n)).unwrap();
                prop_assert!(r <= prev + 1e-9);
                prev = r;
                mu += 0.25;
            }
        }

        #[test]
        fn theorem3_identity_random(
            rates in proptest::collection::vec(0.1f64..100.0, 1..8),
            mu_frac in 0.0f64..1.0,
        ) {
            let c = chans(&rates);
            let n = c.len() as f64;
            let mu = 1.0 + mu_frac * (n - 1.0);
            let rc = optimal_rate(&c, mu).unwrap();
            let sum: f64 = c.iter().map(|ch| (ch.rate() / rc).min(1.0)).sum();
            prop_assert!((sum - mu).abs() < 1e-7, "mu={mu} sum={sum}");
        }
    }
}
