//! Protocol configuration: the tunable parameters of a ReMICSS session.

use std::sync::Arc;

use mcss_base::SimTime;
use mcss_codec::CodecId;
use mcss_core::{ModelError, ShareSchedule};

/// Which share scheduler the sender uses (§V).
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The paper's *dynamic share schedule*: draw integer `(k, m)` with
    /// means `(κ, μ)` per symbol, then send on the first `m` channels
    /// ready for writing (epoll-style).
    Dynamic,
    /// Sample `(k, M)` from an explicit share schedule (e.g. one produced
    /// by the §IV-D linear program). Shared by reference: the session's
    /// two endpoint schedulers clone the `Arc`, not the schedule.
    Static(Arc<ShareSchedule>),
    /// Fixed `(k, m)` with the subset rotating round-robin — a naive
    /// baseline for ablation.
    RoundRobin,
}

/// Configuration of a ReMICSS session.
///
/// # Examples
///
/// ```
/// use mcss_remicss::config::ProtocolConfig;
/// use mcss_base::SimTime;
///
/// let cfg = ProtocolConfig::new(1.5, 3.0)?
///     .with_symbol_bytes(512)
///     .with_reassembly_timeout(SimTime::from_millis(200));
/// assert_eq!(cfg.kappa(), 1.5);
/// # Ok::<(), mcss_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolConfig {
    kappa: f64,
    mu: f64,
    scheduler: SchedulerKind,
    symbol_bytes: usize,
    reassembly_timeout: SimTime,
    adaptive_target: Option<f64>,
    codec: CodecId,
}

impl ProtocolConfig {
    /// Default source symbol size (one share's payload), in bytes.
    pub const DEFAULT_SYMBOL_BYTES: usize = 1250;

    /// Default reassembly eviction timeout.
    pub const DEFAULT_REASSEMBLY_TIMEOUT: SimTime = SimTime::from_millis(500);

    /// Reassembly memory cap in buffered share bytes, every session's.
    pub const DEFAULT_REASSEMBLY_CAPACITY: usize = 8 * 1024 * 1024;

    /// Backlog threshold below which a channel counts as "ready for
    /// writing", every session's.
    pub const DEFAULT_READINESS_THRESHOLD: SimTime = SimTime::from_millis(2);

    /// Creates a configuration with mean threshold `κ` and mean
    /// multiplicity `μ`, the dynamic scheduler, and default framing and
    /// reassembly parameters.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameters`] unless `1 ≤ κ ≤ μ` (the `μ ≤ n`
    /// half is checked when the session is built, since it needs `n`).
    pub fn new(kappa: f64, mu: f64) -> Result<Self, ModelError> {
        mcss_core::check_params(kappa, mu, None)?;
        Ok(ProtocolConfig {
            kappa,
            mu,
            scheduler: SchedulerKind::Dynamic,
            symbol_bytes: Self::DEFAULT_SYMBOL_BYTES,
            reassembly_timeout: Self::DEFAULT_REASSEMBLY_TIMEOUT,
            adaptive_target: None,
            codec: CodecId::from_env(),
        })
    }

    /// Selects the share codec for this session's sender and receiver.
    /// The default comes from `MCSS_CODEC` (falling back to Shamir),
    /// so test suites and CI matrix legs switch codecs without code
    /// changes — mirroring `MCSS_GF256_BACKEND`.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecId) -> Self {
        self.codec = codec;
        self
    }

    /// Selects the scheduler.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the source symbol size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or exceeds the wire format's 16-bit
    /// payload length.
    #[must_use]
    pub fn with_symbol_bytes(mut self, bytes: usize) -> Self {
        assert!(
            bytes > 0 && bytes <= u16::MAX as usize,
            "symbol size must be in 1..=65535"
        );
        self.symbol_bytes = bytes;
        self
    }

    /// Sets the reassembly eviction timeout.
    #[must_use]
    pub fn with_reassembly_timeout(mut self, timeout: SimTime) -> Self {
        self.reassembly_timeout = timeout;
        self
    }

    /// Mean threshold `κ`.
    #[must_use]
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Mean multiplicity `μ`.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The configured scheduler.
    #[must_use]
    pub fn scheduler(&self) -> &SchedulerKind {
        &self.scheduler
    }

    /// Source symbol size in bytes.
    #[must_use]
    pub fn symbol_bytes(&self) -> usize {
        self.symbol_bytes
    }

    /// Reassembly eviction timeout.
    #[must_use]
    pub fn reassembly_timeout(&self) -> SimTime {
        self.reassembly_timeout
    }

    /// Reassembly memory cap in bytes:
    /// [`DEFAULT_REASSEMBLY_CAPACITY`](Self::DEFAULT_REASSEMBLY_CAPACITY).
    #[must_use]
    pub fn reassembly_capacity_bytes(&self) -> usize {
        Self::DEFAULT_REASSEMBLY_CAPACITY
    }

    /// Bound on the receiver's resolved-symbol records: the one value
    /// every engine's tables are built with.
    #[must_use]
    pub fn reassembly_resolved_cap(&self) -> usize {
        crate::reassembly::DEFAULT_RESOLVED_CAP
    }

    /// Readiness backlog threshold:
    /// [`DEFAULT_READINESS_THRESHOLD`](Self::DEFAULT_READINESS_THRESHOLD).
    #[must_use]
    pub fn readiness_threshold(&self) -> SimTime {
        Self::DEFAULT_READINESS_THRESHOLD
    }

    /// The share codec this session encodes and decodes with.
    #[must_use]
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// Enables closed-loop multiplicity adaptation toward a target
    /// symbol-loss fraction (see [`crate::adaptive`]). Only meaningful
    /// with the [`SchedulerKind::Dynamic`] scheduler; `μ` then floats in
    /// `[κ, n]` starting from the configured value.
    ///
    /// # Panics
    ///
    /// Panics unless `target_loss ∈ (0, 1)`.
    #[must_use]
    pub fn with_adaptive(mut self, target_loss: f64) -> Self {
        assert!(
            target_loss.is_finite() && target_loss > 0.0 && target_loss < 1.0,
            "target loss must be in (0, 1)"
        );
        self.adaptive_target = Some(target_loss);
        self
    }

    /// The adaptive loss target, if adaptation is enabled.
    #[must_use]
    pub fn adaptive_target(&self) -> Option<f64> {
        self.adaptive_target
    }

    /// Bytes on the wire per share frame (share payload + protocol
    /// header) under the configured codec. Shamir shares carry exactly
    /// the symbol; the XOR codec's replication overhead is estimated
    /// at the rounded `(κ, μ)` — per-symbol sizes vary with the drawn
    /// `(k, m)`, and this representative figure is what the testbed's
    /// capacity conversion uses.
    #[must_use]
    pub fn share_wire_bytes(&self) -> usize {
        let k = (self.kappa.round().clamp(1.0, 255.0)) as u8;
        let m = (self.mu.round().clamp(f64::from(k), 255.0)) as u8;
        crate::wire::header_bytes(self.codec) + self.codec.share_len(self.symbol_bytes, k, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_parameters() {
        let c = ProtocolConfig::new(1.0, 1.0).unwrap();
        assert_eq!(c.kappa(), 1.0);
        assert_eq!(c.mu(), 1.0);
        assert!(matches!(c.scheduler(), SchedulerKind::Dynamic));
        assert_eq!(c.symbol_bytes(), ProtocolConfig::DEFAULT_SYMBOL_BYTES);
        // Whatever codec the environment selected frames the share.
        let codec = c.codec();
        assert_eq!(
            c.share_wire_bytes(),
            crate::wire::header_bytes(codec)
                + codec.share_len(ProtocolConfig::DEFAULT_SYMBOL_BYTES, 1, 1)
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ProtocolConfig::new(0.5, 2.0).is_err());
        assert!(ProtocolConfig::new(2.0, 1.5).is_err());
        assert!(ProtocolConfig::new(f64::NAN, 2.0).is_err());
        // No channel count exists yet, so the message names none.
        assert_eq!(
            ProtocolConfig::new(3.0, 2.0).unwrap_err().to_string(),
            "parameters violate 1 <= kappa <= mu: kappa=3, mu=2"
        );
    }

    #[test]
    fn builders_apply() {
        let c = ProtocolConfig::new(2.0, 4.0)
            .unwrap()
            .with_scheduler(SchedulerKind::RoundRobin)
            .with_symbol_bytes(100)
            .with_reassembly_timeout(SimTime::from_millis(10));
        assert!(matches!(c.scheduler(), SchedulerKind::RoundRobin));
        assert_eq!(c.symbol_bytes(), 100);
        assert_eq!(c.reassembly_timeout(), SimTime::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "symbol size")]
    fn zero_symbol_size_panics() {
        let _ = ProtocolConfig::new(1.0, 1.0).unwrap().with_symbol_bytes(0);
    }

    #[test]
    #[should_panic(expected = "symbol size")]
    fn oversized_symbol_panics() {
        let _ = ProtocolConfig::new(1.0, 1.0)
            .unwrap()
            .with_symbol_bytes(70_000);
    }
}
