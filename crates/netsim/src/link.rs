//! Unidirectional shaped links: token-bucket rate limiting, bounded
//! queueing, Bernoulli loss, and fixed delay — the simulator's equivalent
//! of one `htb` class plus `netem`.

use rand::Rng;
use rand::RngExt as _;

use crate::frame::Frame;
use crate::SimTime;

/// Configuration of one link direction.
///
/// # Examples
///
/// ```
/// use mcss_netsim::{LinkConfig, SimTime};
///
/// let cfg = LinkConfig::new(100e6)
///     .with_loss(0.01)
///     .with_delay(SimTime::from_micros(250))
///     .with_overhead_bytes(42);
/// assert_eq!(cfg.rate_bps(), 100e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    rate_bps: f64,
    loss: f64,
    delay: SimTime,
    jitter: SimTime,
    queue_limit: SimTime,
    overhead_bits: u64,
}

impl LinkConfig {
    /// Default queue depth: how much serialization backlog the link
    /// buffers before tail-dropping (in time at line rate).
    pub const DEFAULT_QUEUE_LIMIT: SimTime = SimTime::from_millis(50);

    /// A lossless, zero-delay link at `rate_bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_bps` is strictly positive and finite.
    #[must_use]
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "link rate must be positive"
        );
        LinkConfig {
            rate_bps,
            loss: 0.0,
            delay: SimTime::ZERO,
            jitter: SimTime::ZERO,
            queue_limit: Self::DEFAULT_QUEUE_LIMIT,
            overhead_bits: 0,
        }
    }

    /// Sets the Bernoulli per-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `loss ∈ [0, 1)`.
    #[must_use]
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = loss;
        self
    }

    /// Sets the one-way propagation delay.
    #[must_use]
    pub fn with_delay(mut self, delay: SimTime) -> Self {
        self.delay = delay;
        self
    }

    /// Sets a uniform delay jitter: each frame's propagation delay is
    /// drawn uniformly from `delay ± jitter` (clamped at zero), like
    /// `netem delay <d> <jitter>`. Jittered frames may reorder.
    #[must_use]
    pub fn with_jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the maximum queued serialization backlog before tail drop.
    #[must_use]
    pub fn with_queue_limit(mut self, limit: SimTime) -> Self {
        self.queue_limit = limit;
        self
    }

    /// Sets per-frame framing overhead in bytes (e.g. 42 for
    /// Ethernet + IP + UDP headers), charged against the rate budget.
    #[must_use]
    pub fn with_overhead_bytes(mut self, bytes: u64) -> Self {
        self.overhead_bits = bytes * 8;
        self
    }

    /// Line rate in bits per second.
    #[must_use]
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Loss probability.
    #[must_use]
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// One-way delay.
    #[must_use]
    pub fn delay(&self) -> SimTime {
        self.delay
    }

    /// Uniform delay jitter amplitude.
    #[must_use]
    pub fn jitter(&self) -> SimTime {
        self.jitter
    }

    /// Queue limit (backlog time).
    #[must_use]
    pub fn queue_limit(&self) -> SimTime {
        self.queue_limit
    }

    /// Per-frame overhead in bits.
    #[must_use]
    pub fn overhead_bits(&self) -> u64 {
        self.overhead_bits
    }
}

/// What the sender observes when handing a frame to a link.
///
/// Random in-flight loss is deliberately *not* visible here — a real
/// sender cannot distinguish a lost datagram from a delivered one at send
/// time. Local queue overflow is visible (like `ENOBUFS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendOutcome {
    /// The frame was accepted and scheduled for (possible) delivery.
    Queued,
    /// The frame was tail-dropped by the local queue.
    Dropped,
}

/// Counters kept by each link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LinkStats {
    /// Frames offered by the application.
    pub offered_frames: u64,
    /// Frames accepted into the queue.
    pub queued_frames: u64,
    /// Frames tail-dropped by the local queue.
    pub dropped_frames: u64,
    /// Frames lost in flight (Bernoulli loss).
    pub lost_frames: u64,
    /// Frames delivered to the far endpoint.
    pub delivered_frames: u64,
    /// Payload bits delivered (excluding framing overhead).
    pub delivered_bits: u64,
    /// Sum of per-frame one-way latency (queueing + serialization +
    /// propagation), for mean-latency reporting.
    pub total_latency: SimTime,
}

impl LinkStats {
    /// Mean one-way latency of delivered frames, or `None` if nothing was
    /// delivered.
    #[must_use]
    pub fn mean_latency(&self) -> Option<SimTime> {
        (self.delivered_frames > 0)
            .then(|| SimTime::from_nanos(self.total_latency.as_nanos() / self.delivered_frames))
    }

    /// Fraction of queued frames lost in flight.
    #[must_use]
    pub fn loss_ratio(&self) -> f64 {
        if self.queued_frames == 0 {
            0.0
        } else {
            self.lost_frames as f64 / self.queued_frames as f64
        }
    }
}

/// Internal admission decision, including information the sender must not
/// see (whether the frame will be lost, and when it arrives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admit {
    Dropped,
    Lost,
    Deliver { at: SimTime },
}

/// One direction of a channel.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    cfg: LinkConfig,
    /// Time at which the serializer finishes everything queued so far.
    next_free: SimTime,
    stats: LinkStats,
}

impl Link {
    pub(crate) fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            next_free: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    pub(crate) fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    pub(crate) fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Current serialization backlog: how long a frame admitted now would
    /// wait before its first bit is on the wire.
    pub(crate) fn backlog(&self, now: SimTime) -> SimTime {
        self.next_free.saturating_sub(now)
    }

    /// Admits a frame at time `now`, advancing the serializer clock and
    /// drawing the loss coin. Returns the full fate of the frame.
    pub(crate) fn admit<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        frame: &Frame,
        rng: &mut R,
    ) -> Admit {
        self.stats.offered_frames += 1;
        if self.backlog(now) > self.cfg.queue_limit {
            self.stats.dropped_frames += 1;
            return Admit::Dropped;
        }
        let wire_bits = frame.bits() + self.cfg.overhead_bits;
        let tx = SimTime::from_secs_f64(wire_bits as f64 / self.cfg.rate_bps);
        let start = self.next_free.max(now);
        self.next_free = start + tx;
        self.stats.queued_frames += 1;
        if self.cfg.loss > 0.0 && rng.random_bool(self.cfg.loss) {
            self.stats.lost_frames += 1;
            return Admit::Lost;
        }
        let delay = if self.cfg.jitter == SimTime::ZERO {
            self.cfg.delay
        } else {
            let lo = self.cfg.delay.saturating_sub(self.cfg.jitter).as_nanos();
            let hi = self.cfg.delay.saturating_add(self.cfg.jitter).as_nanos();
            SimTime::from_nanos(rng.random_range(lo..=hi))
        };
        Admit::Deliver {
            at: self.next_free + delay,
        }
    }

    /// Replaces the link's shaping configuration mid-simulation
    /// (failure injection / dynamic networks). Queued frames already in
    /// flight keep their old fate; new frames see the new shaping.
    pub(crate) fn reconfigure(&mut self, cfg: LinkConfig) {
        self.cfg = cfg;
    }

    /// Records a completed delivery (called by the simulator when the
    /// deliver event fires).
    pub(crate) fn record_delivery(
        &mut self,
        sent_at: SimTime,
        delivered_at: SimTime,
        frame: &Frame,
    ) {
        self.stats.delivered_frames += 1;
        self.stats.delivered_bits += frame.bits();
        self.stats.total_latency += delivered_at - sent_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn config_builder() {
        let c = LinkConfig::new(1e6)
            .with_loss(0.5)
            .with_delay(SimTime::from_millis(3))
            .with_queue_limit(SimTime::from_millis(7))
            .with_overhead_bytes(10);
        assert_eq!(c.loss(), 0.5);
        assert_eq!(c.delay(), SimTime::from_millis(3));
        assert_eq!(c.queue_limit(), SimTime::from_millis(7));
        assert_eq!(c.overhead_bits(), 80);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn zero_rate_panics() {
        let _ = LinkConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn full_loss_panics() {
        let _ = LinkConfig::new(1.0).with_loss(1.0);
    }

    #[test]
    fn serialization_time_accumulates() {
        // 1 Mbit/s, 1000-bit frames: 1 ms each.
        let mut link = Link::new(LinkConfig::new(1e6));
        let f = Frame::new(vec![0u8; 125]);
        let mut r = rng();
        let a1 = link.admit(SimTime::ZERO, &f, &mut r);
        assert_eq!(
            a1,
            Admit::Deliver {
                at: SimTime::from_millis(1)
            }
        );
        let a2 = link.admit(SimTime::ZERO, &f, &mut r);
        assert_eq!(
            a2,
            Admit::Deliver {
                at: SimTime::from_millis(2)
            }
        );
        assert_eq!(link.backlog(SimTime::ZERO), SimTime::from_millis(2));
        // After the backlog drains the serializer idles.
        let a3 = link.admit(SimTime::from_millis(10), &f, &mut r);
        assert_eq!(
            a3,
            Admit::Deliver {
                at: SimTime::from_millis(11)
            }
        );
    }

    #[test]
    fn delay_adds_to_delivery() {
        let mut link = Link::new(LinkConfig::new(1e6).with_delay(SimTime::from_millis(5)));
        let f = Frame::new(vec![0u8; 125]);
        let a = link.admit(SimTime::ZERO, &f, &mut rng());
        assert_eq!(
            a,
            Admit::Deliver {
                at: SimTime::from_millis(6)
            }
        );
    }

    #[test]
    fn overhead_charged_against_rate() {
        // 125-byte payload + 125-byte overhead = 2000 bits at 1 Mbit/s.
        let mut link = Link::new(LinkConfig::new(1e6).with_overhead_bytes(125));
        let f = Frame::new(vec![0u8; 125]);
        let a = link.admit(SimTime::ZERO, &f, &mut rng());
        assert_eq!(
            a,
            Admit::Deliver {
                at: SimTime::from_millis(2)
            }
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = Link::new(LinkConfig::new(1e6).with_queue_limit(SimTime::from_millis(2)));
        let f = Frame::new(vec![0u8; 125]); // 1 ms each
        let mut r = rng();
        // Backlog after three frames = 3 ms > 2 ms limit.
        assert_ne!(link.admit(SimTime::ZERO, &f, &mut r), Admit::Dropped);
        assert_ne!(link.admit(SimTime::ZERO, &f, &mut r), Admit::Dropped);
        assert_ne!(link.admit(SimTime::ZERO, &f, &mut r), Admit::Dropped);
        assert_eq!(link.admit(SimTime::ZERO, &f, &mut r), Admit::Dropped);
        assert_eq!(link.stats().dropped_frames, 1);
        assert_eq!(link.stats().queued_frames, 3);
        assert_eq!(link.stats().offered_frames, 4);
    }

    #[test]
    fn loss_ratio_converges() {
        let mut link = Link::new(LinkConfig::new(1e12).with_loss(0.25));
        let f = Frame::new(vec![0u8; 10]);
        let mut r = rng();
        let mut t = SimTime::ZERO;
        for _ in 0..20_000 {
            t += SimTime::from_micros(1);
            let _ = link.admit(t, &f, &mut r);
        }
        let ratio = link.stats().loss_ratio();
        assert!((ratio - 0.25).abs() < 0.02, "loss ratio {ratio}");
    }

    #[test]
    fn delivery_stats() {
        let mut link = Link::new(LinkConfig::new(1e6));
        let f = Frame::new(vec![0u8; 125]);
        link.record_delivery(SimTime::ZERO, SimTime::from_millis(4), &f);
        link.record_delivery(SimTime::ZERO, SimTime::from_millis(2), &f);
        let s = link.stats();
        assert_eq!(s.delivered_frames, 2);
        assert_eq!(s.delivered_bits, 2000);
        assert_eq!(s.mean_latency(), Some(SimTime::from_millis(3)));
        assert_eq!(LinkStats::default().mean_latency(), None);
        assert_eq!(LinkStats::default().loss_ratio(), 0.0);
    }
}
