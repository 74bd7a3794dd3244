//! Per-session protocol metrics, and the distributions they feed.
//!
//! [`SessionMetrics`] is the session-scoped companion to the global
//! [`mcss_obs`] span registry: while spans time *code* (split kernels,
//! the event loop), these count and time *protocol* behavior. The state
//! is split by what it describes:
//!
//! * **Per session** — shares sent, dropped and received per channel,
//!   the per-channel one-way delay *sum* (mean delay of one `(session,
//!   channel)` = sum ÷ `shares_received`), and the realized `(k, m)`
//!   frequency matrix the dynamic scheduler actually drew (whose
//!   empirical means must converge to the configured `κ` and `μ`; see
//!   `tests/metrics_stat.rs`). A few hundred bytes.
//! * **Per channel** — the *distributions*: one-way share delay and
//!   inter-share gap per channel, and reassembly residency. Delay is a
//!   property of the channel (the paper's `(z_i, l_i, d_i, r_i)`), not
//!   of the session crossing it, and a full-range [`Histogram`] is
//!   15 KB, so these live in one [`SessionHistograms`] behind an `Arc`:
//!   a standalone engine builds its own, a server shard shares one
//!   among every session it hosts.
//!
//! Everything here is built from [`mcss_obs`] primitives, so the whole
//! structure inherits the crate's overhead contract: recording writes
//! storage preallocated before the first symbol (the zero-allocation
//! steady-state proof holds with telemetry enabled), and with the
//! `telemetry` feature off every field is a zero-sized no-op.
//!
//! Recording is plain memory writes — no locked instruction — because
//! both halves have **one writer at a time**: a session's counters are
//! written through `&mut SessionMetrics` ([`Counter::add_mut`]), and a
//! [`SessionHistograms`] is written only by the thread that currently
//! drives the engines sharing it
//! ([`Histogram::record_single_writer`]). Other threads may read either
//! at any time and see whole, monotone values.

use std::sync::Arc;

use mcss_obs::{Counter, Histogram, MetricsSnapshot};

/// Sentinel for "no share received on this channel yet".
const NO_RX: u64 = u64::MAX;

/// One channel's share traffic counters, per session.
#[derive(Debug, Default)]
pub struct ChannelMetrics {
    /// Share frames handed to this channel's send queue.
    pub shares_sent: Counter,
    /// Share frames rejected by this channel's full send queue.
    pub shares_dropped: Counter,
    /// Share frames delivered from this channel.
    pub shares_received: Counter,
    /// Sum of the one-way delays of the shares delivered from this
    /// channel, nanoseconds; over `shares_received` it is this session's
    /// mean delay on the channel.
    pub delay_sum_nanos: Counter,
}

/// One channel's latency distributions.
#[derive(Debug, Default)]
pub struct ChannelHistograms {
    /// One-way share delay (send stamp to delivery), nanoseconds.
    pub one_way_delay: Histogram,
    /// Gap between consecutive share deliveries of one session on this
    /// channel, nanoseconds.
    pub inter_share_gap: Histogram,
}

/// The distributions sessions record into: delay and gap per channel,
/// and reassembly residency. Recording goes through `&self`, so any
/// number of sessions over the same `n` channels may share one —
/// provided they have **one writer at a time**: every engine recording
/// into a set is driven by the same thread (a server shard's sessions
/// are, by the thread holding `&mut Shard`). Reading is free for all.
/// Debug builds assert the contract on every sample.
#[derive(Debug)]
pub struct SessionHistograms {
    channels: Vec<ChannelHistograms>,
    /// Reassembly residency of completed symbols (first share seen to
    /// reconstruction), nanoseconds.
    pub residency: Histogram,
}

impl SessionHistograms {
    /// Empty distributions for `n` channels. Allocates all bucket
    /// storage here; recording never allocates.
    #[must_use]
    pub fn new(n: usize) -> Self {
        SessionHistograms {
            channels: (0..n).map(|_| ChannelHistograms::default()).collect(),
            residency: Histogram::new(),
        }
    }

    /// The channel count this was built for.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// One channel's distributions.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= channel_count()`.
    #[must_use]
    pub fn channel(&self, channel: usize) -> &ChannelHistograms {
        &self.channels[channel]
    }

    /// All channels' distributions, in channel order.
    #[must_use]
    pub fn channels(&self) -> &[ChannelHistograms] {
        &self.channels
    }

    /// Adds every sample of `other` to the same channels here (see
    /// [`Histogram::absorb`]).
    ///
    /// # Panics
    ///
    /// Panics if `other` has more channels than `self`.
    pub fn absorb(&self, other: &SessionHistograms) {
        assert!(
            other.channels.len() <= self.channels.len(),
            "absorbing {} channels into {}",
            other.channels.len(),
            self.channels.len()
        );
        for (mine, theirs) in self.channels.iter().zip(&other.channels) {
            mine.one_way_delay.absorb(&theirs.one_way_delay);
            mine.inter_share_gap.absorb(&theirs.inter_share_gap);
        }
        self.residency.absorb(&other.residency);
    }

    /// Appends the non-empty distributions as `{prefix}.delay.ch{i}`,
    /// `{prefix}.inter_share_gap.ch{i}` and `{prefix}.{residency}`.
    /// Appends nothing with the `telemetry` feature off.
    pub fn extend_snapshot(&self, prefix: &str, residency: &str, snapshot: &mut MetricsSnapshot) {
        let mut push = |name: String, hist: &Histogram| {
            if !hist.is_empty() {
                snapshot
                    .histograms
                    .push(mcss_obs::HistogramSnapshot::of(&name, hist));
            }
        };
        for (i, ch) in self.channels.iter().enumerate() {
            push(format!("{prefix}.delay.ch{i}"), &ch.one_way_delay);
            push(
                format!("{prefix}.inter_share_gap.ch{i}"),
                &ch.inter_share_gap,
            );
        }
        push(format!("{prefix}.{residency}"), &self.residency);
    }
}

/// Protocol counters for one [`Session`](crate::Session).
///
/// The session records into this on its hot paths; benchmarks and
/// binaries read it back through accessors or [`snapshot`](SessionMetrics::snapshot).
#[derive(Debug)]
pub struct SessionMetrics {
    n: usize,
    channels: Vec<ChannelMetrics>,
    /// Simulated time of the previous delivery per channel ([`NO_RX`]
    /// before the first).
    last_rx_nanos: Vec<u64>,
    /// Realized `(k, m)` draw counts, indexed `k * (n + 1) + m`.
    km: Vec<Counter>,
    /// Sum of drawn thresholds, for the empirical `κ`.
    sum_k: Counter,
    /// Sum of drawn multiplicities, for the empirical `μ`.
    sum_m: Counter,
    /// Number of scheduler draws recorded.
    choices: Counter,
    /// The distributions this session records into — its own, or one
    /// shared with the other sessions of a server shard.
    histograms: Arc<SessionHistograms>,
}

impl SessionMetrics {
    /// Metrics for a standalone session over `n` channels, recording
    /// into distributions of its own. Allocates the counters and the
    /// histograms' bucket storage here; recording never allocates.
    #[must_use]
    pub fn new(n: usize) -> Self {
        SessionMetrics::with_histograms(n, Arc::new(SessionHistograms::new(n)))
    }

    /// Metrics for a session over `n` channels recording its
    /// distributions into `histograms`; only the counters (a few hundred
    /// bytes) are allocated here.
    ///
    /// # Panics
    ///
    /// Panics if `histograms` was not built for `n` channels.
    #[must_use]
    pub(crate) fn with_histograms(n: usize, histograms: Arc<SessionHistograms>) -> Self {
        assert_eq!(
            histograms.channel_count(),
            n,
            "histograms built for another channel count"
        );
        SessionMetrics {
            n,
            channels: (0..n).map(|_| ChannelMetrics::default()).collect(),
            last_rx_nanos: vec![NO_RX; n],
            km: (0..(n + 1) * (n + 1)).map(|_| Counter::new()).collect(),
            sum_k: Counter::new(),
            sum_m: Counter::new(),
            choices: Counter::new(),
            histograms,
        }
    }

    /// The channel count this was built for.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.n
    }

    /// One channel's metrics.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= channel_count()`.
    #[must_use]
    pub fn channel(&self, channel: usize) -> &ChannelMetrics {
        &self.channels[channel]
    }

    /// All channels' metrics, in channel order.
    #[must_use]
    pub fn channels(&self) -> &[ChannelMetrics] {
        &self.channels
    }

    /// The distributions this session records into. Shared with other
    /// sessions when a host built their
    /// [`EngineCore`](crate::engine::EngineCore)s over one set.
    #[must_use]
    pub fn histograms(&self) -> &Arc<SessionHistograms> {
        &self.histograms
    }

    /// Records one scheduler draw of threshold `k` over `m` channels.
    pub fn record_choice(&mut self, k: u8, m: usize) {
        let (k, m) = (k as usize, m);
        if k <= self.n && m <= self.n {
            self.km[k * (self.n + 1) + m].add_mut(1);
        }
        self.sum_k.add_mut(k as u64);
        self.sum_m.add_mut(m as u64);
        self.choices.add_mut(1);
    }

    /// Records a share frame accepted by `channel`'s send queue.
    pub fn record_send(&mut self, channel: usize) {
        self.channels[channel].shares_sent.add_mut(1);
    }

    /// Records a share frame rejected by `channel`'s full send queue.
    pub fn record_drop(&mut self, channel: usize) {
        self.channels[channel].shares_dropped.add_mut(1);
    }

    /// Records a share delivered from `channel` at simulated time
    /// `now_nanos`, `delay_nanos` after it was stamped at the sender.
    pub fn record_receive(&mut self, channel: usize, now_nanos: u64, delay_nanos: u64) {
        let ch = &mut self.channels[channel];
        ch.shares_received.add_mut(1);
        ch.delay_sum_nanos.add_mut(delay_nanos);
        let hist = &self.histograms.channels[channel];
        hist.one_way_delay.record_single_writer(delay_nanos);
        let last = self.last_rx_nanos[channel];
        if last != NO_RX {
            hist.inter_share_gap
                .record_single_writer(now_nanos.saturating_sub(last));
        }
        self.last_rx_nanos[channel] = now_nanos;
    }

    /// Records a completed symbol's reassembly residency.
    pub fn record_residency(&mut self, nanos: u64) {
        self.histograms.residency.record_single_writer(nanos);
    }

    /// Number of scheduler draws recorded.
    #[must_use]
    pub fn choices(&self) -> u64 {
        self.choices.get()
    }

    /// How many draws realized exactly `(k, m)`.
    #[must_use]
    pub fn km_count(&self, k: usize, m: usize) -> u64 {
        if k <= self.n && m <= self.n {
            self.km[k * (self.n + 1) + m].get()
        } else {
            0
        }
    }

    /// Mean realized threshold — must converge to the configured `κ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_kappa(&self) -> f64 {
        let n = self.choices.get();
        if n == 0 {
            0.0
        } else {
            self.sum_k.get() as f64 / n as f64
        }
    }

    /// Mean realized multiplicity — must converge to the configured `μ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_mu(&self) -> f64 {
        let n = self.choices.get();
        if n == 0 {
            0.0
        } else {
            self.sum_m.get() as f64 / n as f64
        }
    }

    /// Total shares handed to send queues across channels.
    #[must_use]
    pub fn shares_sent_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_sent.get()).sum()
    }

    /// Total shares dropped by full send queues across channels.
    #[must_use]
    pub fn shares_dropped_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_dropped.get()).sum()
    }

    /// Total shares delivered across channels.
    #[must_use]
    pub fn shares_received_total(&self) -> u64 {
        self.channels.iter().map(|c| c.shares_received.get()).sum()
    }

    /// Serializable snapshot under `remicss.*` names (e.g.
    /// `remicss.shares_sent.ch0`, `remicss.delay.ch2`). Empty with the
    /// `telemetry` feature off — the metrics are absent, not zero.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        #[cfg(not(feature = "telemetry"))]
        {
            MetricsSnapshot::default()
        }
        #[cfg(feature = "telemetry")]
        {
            use mcss_obs::CounterSnapshot;
            let mut snap = MetricsSnapshot::default();
            for (i, ch) in self.channels.iter().enumerate() {
                for (what, counter) in [
                    ("shares_sent", &ch.shares_sent),
                    ("shares_dropped", &ch.shares_dropped),
                    ("shares_received", &ch.shares_received),
                ] {
                    snap.counters.push(CounterSnapshot {
                        name: format!("remicss.{what}.ch{i}"),
                        value: counter.get(),
                    });
                }
            }
            snap.counters.push(CounterSnapshot {
                name: "remicss.scheduler.choices".to_string(),
                value: self.choices.get(),
            });
            self.histograms
                .extend_snapshot("remicss", "reassembly.residency", &mut snap);
            snap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_means_over_fixed_draws() {
        let mut m = SessionMetrics::new(4);
        m.record_choice(2, 3);
        m.record_choice(3, 4);
        // With telemetry off the counters are absent, not zero.
        let expected_choices = if cfg!(feature = "telemetry") { 2 } else { 0 };
        assert_eq!(m.choices(), expected_choices);
        assert_eq!(
            m.km_count(2, 3),
            if cfg!(feature = "telemetry") { 1 } else { 0 }
        );
        if cfg!(feature = "telemetry") {
            assert!((m.empirical_kappa() - 2.5).abs() < 1e-12);
            assert!((m.empirical_mu() - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn per_channel_counters_are_independent() {
        let mut m = SessionMetrics::new(3);
        m.record_send(0);
        m.record_send(0);
        m.record_drop(2);
        m.record_receive(1, 1_000, 250);
        m.record_receive(1, 2_000, 350);
        if cfg!(feature = "telemetry") {
            assert_eq!(m.channel(0).shares_sent.get(), 2);
            assert_eq!(m.channel(1).shares_received.get(), 2);
            // The per-session estimator: mean delay = sum / received.
            assert_eq!(m.channel(1).delay_sum_nanos.get(), 600);
            assert_eq!(m.channel(0).delay_sum_nanos.get(), 0);
            assert_eq!(m.channel(2).shares_dropped.get(), 1);
            assert_eq!(m.shares_sent_total(), 2);
            assert_eq!(m.shares_received_total(), 2);
            assert_eq!(m.shares_dropped_total(), 1);
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn inter_share_gap_needs_two_deliveries() {
        let mut m = SessionMetrics::new(1);
        m.record_receive(0, 1_000, 100);
        let histograms = Arc::clone(m.histograms());
        let gap = &histograms.channel(0).inter_share_gap;
        assert!(gap.is_empty());
        m.record_receive(0, 1_750, 100);
        assert_eq!(gap.count(), 1);
        assert_eq!(gap.max(), 750);
    }

    /// Two sessions on one set of distributions: counters stay apart,
    /// samples pool, and a gap is never measured across sessions.
    #[cfg(feature = "telemetry")]
    #[test]
    fn sessions_sharing_histograms_pool_samples_not_counters() {
        let shared = Arc::new(SessionHistograms::new(2));
        let mut a = SessionMetrics::with_histograms(2, Arc::clone(&shared));
        let mut b = SessionMetrics::with_histograms(2, Arc::clone(&shared));
        a.record_receive(1, 1_000, 100);
        b.record_receive(1, 5_000, 300);
        a.record_residency(40);
        assert_eq!(a.channel(1).shares_received.get(), 1);
        assert_eq!(b.channel(1).delay_sum_nanos.get(), 300);
        assert_eq!(shared.channel(1).one_way_delay.count(), 2);
        assert_eq!(shared.channel(1).one_way_delay.max(), 300);
        assert!(shared.channel(1).inter_share_gap.is_empty());
        assert_eq!(shared.residency.count(), 1);
        assert!(Arc::ptr_eq(a.histograms(), b.histograms()));

        let total = SessionHistograms::new(3);
        total.absorb(&shared);
        total.absorb(&shared);
        assert_eq!(total.channel(1).one_way_delay.count(), 4);
        assert_eq!(total.residency.count(), 2);
        assert!(total.channel(2).one_way_delay.is_empty());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn snapshot_names_are_per_channel() {
        let mut m = SessionMetrics::new(2);
        m.record_send(1);
        m.record_receive(1, 5_000, 400);
        let snap = m.snapshot();
        assert!(snap
            .counters
            .iter()
            .any(|c| c.name == "remicss.shares_sent.ch1" && c.value == 1));
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "remicss.delay.ch1"));
        // Channel 0 saw no deliveries: counter present at zero, but no
        // empty histograms.
        assert!(!snap.histograms.iter().any(|h| h.name.ends_with("ch0")));
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_snapshot_is_empty() {
        let mut m = SessionMetrics::new(2);
        m.record_send(0);
        m.record_receive(0, 1_000, 100);
        assert!(m.snapshot().is_empty());
        assert_eq!(m.shares_sent_total(), 0);
    }

    /// Feature off, the distributions compile to nothing: no bucket
    /// storage behind the `Arc`, whatever the channel count.
    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_histograms_are_zero_sized() {
        use std::mem::{size_of, size_of_val};
        assert_eq!(size_of::<ChannelHistograms>(), 0);
        assert_eq!(size_of::<ChannelMetrics>(), 0);
        let h = SessionHistograms::new(64);
        assert_eq!(size_of_val(h.channels()), 0);
        assert_eq!(size_of_val(&h.residency), 0);
        h.absorb(&SessionHistograms::new(3));
        let mut snap = MetricsSnapshot::default();
        h.extend_snapshot("x", "residency", &mut snap);
        assert!(snap.is_empty());
    }
}
