//! Error types for the model crate.

/// A channel property out of its admissible range (§III-B), or an invalid
/// channel set.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ChannelError {
    /// Risk `z` outside `[0, 1]` or not finite.
    Risk {
        /// The offending value.
        value: f64,
    },
    /// Loss `l` outside `[0, 1)` or not finite.
    Loss {
        /// The offending value.
        value: f64,
    },
    /// Delay `d` negative or not finite.
    Delay {
        /// The offending value.
        value: f64,
    },
    /// Rate `r` not strictly positive or not finite.
    Rate {
        /// The offending value.
        value: f64,
    },
    /// Channel set with no channels.
    Empty,
    /// Channel set larger than [`MAX_CHANNELS`](crate::MAX_CHANNELS).
    TooMany {
        /// Number of channels supplied.
        count: usize,
    },
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::Risk { value } => {
                write!(f, "risk {value} outside [0, 1]")
            }
            ChannelError::Loss { value } => {
                write!(f, "loss {value} outside [0, 1)")
            }
            ChannelError::Delay { value } => {
                write!(f, "delay {value} is negative or not finite")
            }
            ChannelError::Rate { value } => {
                write!(f, "rate {value} is not strictly positive and finite")
            }
            ChannelError::Empty => write!(f, "channel set is empty"),
            ChannelError::TooMany { count } => write!(
                f,
                "channel set has {count} channels, more than the supported {}",
                crate::MAX_CHANNELS
            ),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Error from model computations and schedule construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A channel or channel set was invalid.
    Channel(ChannelError),
    /// Parameters violate `1 ≤ κ ≤ μ ≤ n`.
    InvalidParameters {
        /// Requested mean threshold.
        kappa: f64,
        /// Requested mean multiplicity.
        mu: f64,
        /// Number of channels, where the caller knew one.
        n: Option<usize>,
    },
    /// A schedule entry violates `1 ≤ k ≤ |M|` or references channels
    /// outside the set.
    InvalidEntry {
        /// The offending threshold.
        k: u8,
        /// Size of the offending subset.
        subset_len: usize,
    },
    /// Schedule probabilities are negative or do not sum to one.
    InvalidDistribution {
        /// The sum of the supplied probabilities.
        sum: f64,
    },
    /// A schedule with no entries.
    EmptySchedule,
    /// An adaptive target on a scheduler other than the dynamic one:
    /// adaptation rewrites the dynamic sampler's `μ`, which a fixed
    /// schedule does not have. `(κ, μ, n)` may well be valid.
    AdaptiveNeedsDynamicScheduler,
    /// The underlying linear program failed.
    Lp(mcss_lp::LpError),
}

impl core::fmt::Display for ModelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ModelError::Channel(e) => write!(f, "invalid channel: {e}"),
            ModelError::InvalidParameters {
                kappa,
                mu,
                n: Some(n),
            } => write!(
                f,
                "parameters violate 1 <= kappa <= mu <= n: kappa={kappa}, mu={mu}, n={n}"
            ),
            ModelError::InvalidParameters { kappa, mu, n: None } => write!(
                f,
                "parameters violate 1 <= kappa <= mu: kappa={kappa}, mu={mu}"
            ),
            ModelError::InvalidEntry { k, subset_len } => write!(
                f,
                "schedule entry violates 1 <= k <= |M|: k={k}, |M|={subset_len}"
            ),
            ModelError::InvalidDistribution { sum } => {
                write!(f, "schedule probabilities sum to {sum}, expected 1")
            }
            ModelError::EmptySchedule => write!(f, "schedule has no entries"),
            ModelError::AdaptiveNeedsDynamicScheduler => write!(
                f,
                "an adaptive target needs the dynamic scheduler, whose mu it rewrites"
            ),
            ModelError::Lp(e) => write!(f, "schedule linear program failed: {e}"),
        }
    }
}

/// The admissibility rule of the fractional parameters (§III-C):
/// `1 ≤ κ ≤ μ ≤ n`, both finite. With `n` not yet known (`None`) the
/// `μ ≤ n` half is left to whoever learns the channel count.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] carrying the three arguments.
///
/// # Examples
///
/// ```
/// use mcss_core::check_params;
///
/// assert!(check_params(2.0, 3.5, Some(5)).is_ok());
/// assert!(check_params(2.0, 5.5, Some(5)).is_err());
/// assert!(check_params(2.0, 5.5, None).is_ok());
/// ```
pub fn check_params(kappa: f64, mu: f64, n: Option<usize>) -> Result<(), ModelError> {
    let finite = kappa.is_finite() && mu.is_finite();
    if !finite || kappa < 1.0 || kappa > mu || n.is_some_and(|n| mu > n as f64) {
        return Err(ModelError::InvalidParameters { kappa, mu, n });
    }
    Ok(())
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Channel(e) => Some(e),
            ModelError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChannelError> for ModelError {
    fn from(e: ChannelError) -> Self {
        ModelError::Channel(e)
    }
}

impl From<mcss_lp::LpError> for ModelError {
    fn from(e: mcss_lp::LpError) -> Self {
        ModelError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_nonempty() {
        let cases: Vec<ModelError> = vec![
            ModelError::Channel(ChannelError::Empty),
            ModelError::InvalidParameters {
                kappa: 2.0,
                mu: 1.0,
                n: Some(5),
            },
            ModelError::InvalidEntry {
                k: 3,
                subset_len: 2,
            },
            ModelError::InvalidDistribution { sum: 0.5 },
            ModelError::EmptySchedule,
            ModelError::Lp(mcss_lp::LpError::Infeasible),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = ModelError::from(ChannelError::Empty);
        assert!(e.source().is_some());
        let e = ModelError::from(mcss_lp::LpError::Unbounded);
        assert!(e.source().is_some());
        assert!(ModelError::EmptySchedule.source().is_none());
    }
}
