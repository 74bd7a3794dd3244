//! Closed-loop adaptation of the mean multiplicity `μ`.
//!
//! The model tells you the best `μ` *if* you know the loss vector — but
//! deployments rarely do, and channel conditions drift. This controller
//! closes the loop the way the paper's future-work discussion suggests:
//! the receiver periodically reports how many symbols it reconstructed
//! (a [`ControlFrame`](crate::wire::ControlFrame) on the wire), the
//! sender compares that against what it sent over the same epoch, and
//! nudges `μ` within `[κ, n]`:
//!
//! * measured loss above the target → add redundancy (`μ` up);
//! * measured loss far below the target → reclaim rate (`μ` down).
//!
//! An EWMA smooths epoch noise and a multiplicative-increase /
//! additive-decrease step keeps recovery fast after sudden degradation
//! while probing gently in the good regime.

use mcss_core::ModelError;

/// Controller state for adaptive multiplicity.
///
/// # Examples
///
/// ```
/// use mcss_remicss::adaptive::AdaptiveController;
///
/// let mut ctl = AdaptiveController::new(1.0, 1.5, 5, 1e-2)?;
/// // A bad epoch: 20% of symbols lost.
/// ctl.observe(80, 100);
/// assert!(ctl.mu() > 1.5);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveController {
    kappa: f64,
    n: usize,
    mu: f64,
    target_loss: f64,
    ewma: Option<f64>,
    alpha: f64,
    up_step: f64,
    down_step: f64,
    adjustments: u64,
}

impl AdaptiveController {
    /// EWMA smoothing factor (weight of the newest epoch).
    pub const DEFAULT_ALPHA: f64 = 0.3;
    /// Additive increase applied per bad epoch.
    pub const DEFAULT_UP_STEP: f64 = 0.5;
    /// Additive decrease applied per comfortable epoch.
    pub const DEFAULT_DOWN_STEP: f64 = 0.1;

    /// Creates a controller starting at `initial_mu`, bounded to
    /// `[κ, n]`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameters`] unless
    /// `1 ≤ κ ≤ initial_mu ≤ n` and `target_loss ∈ (0, 1)`.
    pub fn new(
        kappa: f64,
        initial_mu: f64,
        n: usize,
        target_loss: f64,
    ) -> Result<Self, ModelError> {
        if !(0.0..1.0).contains(&target_loss) || target_loss == 0.0 {
            return Err(ModelError::InvalidParameters {
                kappa,
                mu: initial_mu,
                n: Some(n),
            });
        }
        mcss_core::check_params(kappa, initial_mu, Some(n))?;
        Ok(AdaptiveController {
            kappa,
            n,
            mu: initial_mu,
            target_loss,
            ewma: None,
            alpha: Self::DEFAULT_ALPHA,
            up_step: Self::DEFAULT_UP_STEP,
            down_step: Self::DEFAULT_DOWN_STEP,
            adjustments: 0,
        })
    }

    /// The current operating multiplicity.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The mean threshold bound (`μ` never drops below it).
    #[must_use]
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// The smoothed loss estimate, if any epoch has been observed.
    #[must_use]
    pub fn estimated_loss(&self) -> Option<f64> {
        self.ewma
    }

    /// Number of times `μ` actually moved.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Feeds one feedback epoch: the receiver reconstructed `delivered`
    /// of the `sent` symbols the sender transmitted in that epoch.
    /// Returns the (possibly updated) `μ`.
    ///
    /// Epochs with nothing sent are ignored.
    pub fn observe(&mut self, delivered: u64, sent: u64) -> f64 {
        if sent == 0 {
            return self.mu;
        }
        let loss = 1.0 - (delivered.min(sent)) as f64 / sent as f64;
        let ewma = match self.ewma {
            None => loss,
            Some(prev) => self.alpha * loss + (1.0 - self.alpha) * prev,
        };
        self.ewma = Some(ewma);
        let old = self.mu;
        if ewma > self.target_loss {
            self.mu = (self.mu + self.up_step).min(self.n as f64);
        } else if ewma < self.target_loss * 0.25 {
            self.mu = (self.mu - self.down_step).max(self.kappa);
        }
        if (self.mu - old).abs() > 1e-12 {
            self.adjustments += 1;
        }
        self.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(AdaptiveController::new(0.5, 1.0, 5, 0.01).is_err());
        assert!(AdaptiveController::new(2.0, 1.5, 5, 0.01).is_err());
        assert!(AdaptiveController::new(1.0, 6.0, 5, 0.01).is_err());
        assert!(AdaptiveController::new(1.0, 2.0, 5, 0.0).is_err());
        assert!(AdaptiveController::new(1.0, 2.0, 5, 1.0).is_err());
        assert!(AdaptiveController::new(1.0, 2.0, 5, 0.01).is_ok());
    }

    #[test]
    fn sustained_loss_raises_mu_to_cap() {
        let mut ctl = AdaptiveController::new(1.0, 1.0, 5, 0.01).unwrap();
        for _ in 0..20 {
            ctl.observe(70, 100); // 30% loss
        }
        assert_eq!(ctl.mu(), 5.0);
        assert!(ctl.adjustments() >= 8);
        assert!(ctl.estimated_loss().unwrap() > 0.2);
    }

    #[test]
    fn clean_epochs_decay_mu_to_kappa() {
        let mut ctl = AdaptiveController::new(1.5, 4.0, 5, 0.05).unwrap();
        for _ in 0..40 {
            ctl.observe(100, 100);
        }
        assert!((ctl.mu() - 1.5).abs() < 1e-9, "mu {}", ctl.mu());
    }

    #[test]
    fn loss_near_target_holds_steady() {
        let mut ctl = AdaptiveController::new(1.0, 3.0, 5, 0.10).unwrap();
        // Loss in the comfort band (between target/4 and target).
        for _ in 0..20 {
            ctl.observe(95, 100); // 5%: below target, above target/4
        }
        assert_eq!(ctl.mu(), 3.0);
        assert_eq!(ctl.adjustments(), 0);
    }

    #[test]
    fn empty_epochs_ignored() {
        let mut ctl = AdaptiveController::new(1.0, 2.0, 5, 0.01).unwrap();
        let mu = ctl.observe(0, 0);
        assert_eq!(mu, 2.0);
        assert_eq!(ctl.estimated_loss(), None);
    }

    #[test]
    fn delivered_exceeding_sent_clamped() {
        // Late deliveries from a previous epoch can make delivered > sent;
        // the controller treats that as zero loss rather than negative.
        let mut ctl = AdaptiveController::new(1.0, 3.0, 5, 0.5).unwrap();
        ctl.observe(150, 100);
        assert_eq!(ctl.estimated_loss(), Some(0.0));
    }

    #[test]
    fn recovery_is_faster_than_decay() {
        // One catastrophic epoch moves mu up more than one clean epoch
        // moves it down (MIAD-style asymmetry).
        let mut up = AdaptiveController::new(1.0, 2.0, 5, 0.01).unwrap();
        up.observe(0, 100);
        let raised = up.mu() - 2.0;
        let mut down = AdaptiveController::new(1.0, 2.0, 5, 0.01).unwrap();
        down.observe(100, 100);
        let lowered = 2.0 - down.mu();
        assert!(raised > lowered);
    }
}
