//! Protocol metrics: what a host's channels carried.
//!
//! [`HostMetrics`] is the protocol-side companion to the global
//! [`mcss_obs`] span registry: while spans time *code* (split kernels,
//! the event loop), these count and time *protocol* behavior. Everything
//! here describes the channels a host drives (the paper's `(z_i, l_i,
//! d_i, r_i)`), not any one session crossing them, so one set serves
//! every session of a host: a standalone [`Engine`](crate::Engine) or
//! [`Session`](crate::Session) builds its own (a host of one), a server
//! shard shares one among every session it hosts over the same channel
//! count. A session adds nothing to it.
//!
//! * **Per channel**: shares sent, dropped and received, the one-way
//!   delay sum (mean delay of the channel = sum ÷ `shares_received`),
//!   and the distributions of one-way delay and of the gap between
//!   consecutive deliveries on the channel.
//! * **Per host**: the realized `(k, m)` frequency matrix the dynamic
//!   scheduler drew, whose empirical means must converge to the
//!   configured `κ` and `μ` (see `tests/metrics_stat.rs`), and the
//!   reassembly residency of completed symbols.
//!
//! Everything is built from [`mcss_obs`] primitives, so recording writes
//! storage preallocated before the first symbol (the zero-allocation
//! steady-state proof holds with every metric recording). Recording goes
//! through `&self` with plain loads and stores — no locked instruction —
//! because a set has **one writer at a time**: the thread that drives
//! the engines sharing it ([`Counter::add_single_writer`],
//! [`Histogram::record_single_writer`]). Other threads may read at any
//! time and see whole, monotone values.

use std::sync::atomic::{AtomicU64, Ordering};

use mcss_obs::{Counter, CounterSnapshot, Histogram, HistogramSnapshot, MetricsSnapshot};

/// Sentinel for "no share received on this channel yet".
const NO_RX: u64 = u64::MAX;

/// One channel's share traffic: its counters and its distributions.
#[derive(Debug)]
pub struct ChannelMetrics {
    /// Share frames handed to this channel's send queue.
    pub shares_sent: Counter,
    /// Share frames rejected by this channel's full send queue.
    pub shares_dropped: Counter,
    /// Share frames delivered from this channel.
    pub shares_received: Counter,
    /// Sum of the one-way delays of the shares delivered from this
    /// channel, nanoseconds; over `shares_received` it is the channel's
    /// mean delay.
    pub delay_sum_nanos: Counter,
    /// One-way share delay (send stamp to delivery), nanoseconds.
    pub one_way_delay: Histogram,
    /// Gap between consecutive share deliveries on this channel at this
    /// host, whichever sessions they belong to, nanoseconds.
    pub inter_share_gap: Histogram,
    /// Time of the previous delivery ([`NO_RX`] before the first).
    last_rx_nanos: AtomicU64,
}

impl Default for ChannelMetrics {
    fn default() -> Self {
        ChannelMetrics {
            shares_sent: Counter::new(),
            shares_dropped: Counter::new(),
            shares_received: Counter::new(),
            delay_sum_nanos: Counter::new(),
            one_way_delay: Histogram::new(),
            inter_share_gap: Histogram::new(),
            last_rx_nanos: AtomicU64::new(NO_RX),
        }
    }
}

/// The protocol metrics of a host's sessions over `n` channels.
/// Recording goes through `&self`, so any number of sessions over the
/// same `n` channels may share one — provided they have **one writer at
/// a time**: every engine recording into a set is driven by the same
/// thread (a server shard's sessions are, by the thread holding
/// `&mut Shard`). Reading is free for all. Debug builds assert the
/// contract on every record.
#[derive(Debug)]
pub struct HostMetrics {
    channels: Box<[ChannelMetrics]>,
    /// Realized `(k, m)` draw counts, indexed `k * (n + 1) + m`.
    km: Box<[Counter]>,
    /// Sum of drawn thresholds, for the empirical `κ`.
    sum_k: Counter,
    /// Sum of drawn multiplicities, for the empirical `μ`.
    sum_m: Counter,
    /// Number of scheduler draws recorded.
    choices: Counter,
    /// Reassembly residency of completed symbols (first share seen to
    /// reconstruction), nanoseconds.
    pub residency: Histogram,
}

impl HostMetrics {
    /// Empty metrics for `n` channels. Allocates all storage here;
    /// recording never allocates.
    #[must_use]
    pub fn new(n: usize) -> Self {
        HostMetrics {
            channels: (0..n).map(|_| ChannelMetrics::default()).collect(),
            km: (0..(n + 1) * (n + 1)).map(|_| Counter::new()).collect(),
            sum_k: Counter::new(),
            sum_m: Counter::new(),
            choices: Counter::new(),
            residency: Histogram::new(),
        }
    }

    /// The channel count this was built for.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
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

    /// The `(k, m)` cell, if both fit the channel count.
    fn km_cell(&self, k: usize, m: usize) -> Option<&Counter> {
        let n = self.channel_count();
        (k <= n && m <= n).then(|| &self.km[k * (n + 1) + m])
    }

    /// Records one scheduler draw of threshold `k` over `m` channels.
    pub fn record_choice(&self, k: u8, m: usize) {
        if let Some(cell) = self.km_cell(k as usize, m) {
            cell.add_single_writer(1);
        }
        self.sum_k.add_single_writer(u64::from(k));
        self.sum_m.add_single_writer(m as u64);
        self.choices.add_single_writer(1);
    }

    /// Records a share frame accepted by `channel`'s send queue.
    pub fn record_send(&self, channel: usize) {
        self.channels[channel].shares_sent.add_single_writer(1);
    }

    /// Records a share frame rejected by `channel`'s full send queue.
    pub fn record_drop(&self, channel: usize) {
        self.channels[channel].shares_dropped.add_single_writer(1);
    }

    /// Records a share delivered from `channel` at time `now_nanos`,
    /// `delay_nanos` after it was stamped at the sender.
    pub fn record_receive(&self, channel: usize, now_nanos: u64, delay_nanos: u64) {
        let ch = &self.channels[channel];
        ch.shares_received.add_single_writer(1);
        ch.delay_sum_nanos.add_single_writer(delay_nanos);
        ch.one_way_delay.record_single_writer(delay_nanos);
        let last = ch.last_rx_nanos.load(Ordering::Relaxed);
        if last != NO_RX {
            ch.inter_share_gap
                .record_single_writer(now_nanos.saturating_sub(last));
        }
        ch.last_rx_nanos.store(now_nanos, Ordering::Relaxed);
    }

    /// Records a completed symbol's reassembly residency.
    pub fn record_residency(&self, nanos: u64) {
        self.residency.record_single_writer(nanos);
    }

    /// Number of scheduler draws recorded.
    #[must_use]
    pub fn choices(&self) -> u64 {
        self.choices.get()
    }

    /// How many draws realized exactly `(k, m)`.
    #[must_use]
    pub fn km_count(&self, k: usize, m: usize) -> u64 {
        self.km_cell(k, m).map_or(0, Counter::get)
    }

    /// Sum of the drawn thresholds.
    #[must_use]
    pub fn sum_k(&self) -> u64 {
        self.sum_k.get()
    }

    /// Sum of the drawn multiplicities.
    #[must_use]
    pub fn sum_m(&self) -> u64 {
        self.sum_m.get()
    }

    /// Mean realized threshold — must converge to the configured `κ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_kappa(&self) -> f64 {
        ratio(self.sum_k(), self.choices())
    }

    /// Mean realized multiplicity — must converge to the configured `μ`.
    /// Zero before any draw.
    #[must_use]
    pub fn empirical_mu(&self) -> f64 {
        ratio(self.sum_m(), self.choices())
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

    /// Adds every count and sample of `other` to the same channels and
    /// `(k, m)` cells here, as if recorded here (see
    /// [`Histogram::absorb`]); the last-delivery stamps stay. Any thread
    /// may absorb into a set nobody records into, such as an export's
    /// running total.
    ///
    /// # Panics
    ///
    /// Panics if `other` has more channels than `self`.
    pub fn absorb(&self, other: &HostMetrics) {
        let n = other.channel_count();
        assert!(
            n <= self.channel_count(),
            "absorbing {n} channels into {}",
            self.channel_count()
        );
        let add = |mine: &Counter, theirs: &Counter| mine.add(theirs.get());
        for (mine, theirs) in self.channels.iter().zip(other.channels()) {
            add(&mine.shares_sent, &theirs.shares_sent);
            add(&mine.shares_dropped, &theirs.shares_dropped);
            add(&mine.shares_received, &theirs.shares_received);
            add(&mine.delay_sum_nanos, &theirs.delay_sum_nanos);
            mine.one_way_delay.absorb(&theirs.one_way_delay);
            mine.inter_share_gap.absorb(&theirs.inter_share_gap);
        }
        for k in 0..=n {
            for m in 0..=n {
                if let (Some(mine), Some(theirs)) = (self.km_cell(k, m), other.km_cell(k, m)) {
                    add(mine, theirs);
                }
            }
        }
        add(&self.sum_k, &other.sum_k);
        add(&self.sum_m, &other.sum_m);
        add(&self.choices, &other.choices);
        self.residency.absorb(&other.residency);
    }

    /// Appends the counters `{prefix}.shares_{sent,dropped,received}.ch{i}`,
    /// `{prefix}.scheduler.choices` and, for every `(k, m)` drawn,
    /// `{prefix}.scheduler.km.{k}_{m}`; then the non-empty distributions
    /// `{prefix}.delay.ch{i}`, `{prefix}.inter_share_gap.ch{i}` and
    /// `{prefix}.{residency}`.
    pub fn extend_snapshot(&self, prefix: &str, residency: &str, snapshot: &mut MetricsSnapshot) {
        let mut counter = |name: String, value: u64| {
            snapshot.counters.push(CounterSnapshot { name, value });
        };
        for (i, ch) in self.channels.iter().enumerate() {
            counter(format!("{prefix}.shares_sent.ch{i}"), ch.shares_sent.get());
            counter(
                format!("{prefix}.shares_dropped.ch{i}"),
                ch.shares_dropped.get(),
            );
            counter(
                format!("{prefix}.shares_received.ch{i}"),
                ch.shares_received.get(),
            );
        }
        counter(format!("{prefix}.scheduler.choices"), self.choices());
        let n = self.channel_count();
        for k in 0..=n {
            for m in 0..=n {
                let count = self.km_count(k, m);
                if count != 0 {
                    counter(format!("{prefix}.scheduler.km.{k}_{m}"), count);
                }
            }
        }
        let mut histogram = |name: String, hist: &Histogram| {
            if !hist.is_empty() {
                snapshot.histograms.push(HistogramSnapshot::of(&name, hist));
            }
        };
        for (i, ch) in self.channels.iter().enumerate() {
            histogram(format!("{prefix}.delay.ch{i}"), &ch.one_way_delay);
            histogram(
                format!("{prefix}.inter_share_gap.ch{i}"),
                &ch.inter_share_gap,
            );
        }
        histogram(format!("{prefix}.{residency}"), &self.residency);
    }
}

/// `sum / count`, or 0 when nothing was counted.
fn ratio(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empirical_means_over_fixed_draws() {
        let m = HostMetrics::new(4);
        m.record_choice(2, 3);
        m.record_choice(3, 4);
        assert_eq!(m.choices(), 2);
        assert_eq!(m.km_count(2, 3), 1);
        assert_eq!((m.sum_k(), m.sum_m()), (5, 7));
        assert!((m.empirical_kappa() - 2.5).abs() < 1e-12);
        assert!((m.empirical_mu() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn per_channel_counters_are_independent() {
        let m = HostMetrics::new(3);
        m.record_send(0);
        m.record_send(0);
        m.record_drop(2);
        m.record_receive(1, 1_000, 250);
        m.record_receive(1, 2_000, 350);
        assert_eq!(m.channel(0).shares_sent.get(), 2);
        assert_eq!(m.channel(1).shares_received.get(), 2);
        // The channel's mean delay = sum / received.
        assert_eq!(m.channel(1).delay_sum_nanos.get(), 600);
        assert_eq!(m.channel(0).delay_sum_nanos.get(), 0);
        assert_eq!(m.channel(2).shares_dropped.get(), 1);
        assert_eq!(m.shares_sent_total(), 2);
        assert_eq!(m.shares_received_total(), 2);
        assert_eq!(m.shares_dropped_total(), 1);
    }

    #[test]
    fn inter_share_gap_needs_two_deliveries() {
        let m = HostMetrics::new(1);
        m.record_receive(0, 1_000, 100);
        let gap = &m.channel(0).inter_share_gap;
        assert!(gap.is_empty());
        m.record_receive(0, 1_750, 100);
        assert_eq!(gap.count(), 1);
        assert_eq!(gap.max(), 750);
    }

    /// Two sessions on one set: counts and samples pool, and the gap is
    /// the channel's inter-arrival time, whichever session a delivery
    /// belongs to. Sets of different widths merge by channel and by
    /// `(k, m)` cell.
    #[test]
    fn sessions_sharing_a_host_pool_counters_and_samples() {
        let shared = Arc::new(HostMetrics::new(2));
        let (a, b) = (Arc::clone(&shared), Arc::clone(&shared));
        a.record_receive(1, 1_000, 100);
        b.record_receive(1, 5_000, 300);
        a.record_residency(40);
        a.record_choice(1, 2);
        b.record_choice(2, 2);
        assert_eq!(shared.channel(1).shares_received.get(), 2);
        assert_eq!(shared.channel(1).delay_sum_nanos.get(), 400);
        assert_eq!(shared.channel(1).one_way_delay.count(), 2);
        assert_eq!(shared.channel(1).one_way_delay.max(), 300);
        assert_eq!(shared.channel(1).inter_share_gap.max(), 4_000);
        assert_eq!(shared.residency.count(), 1);
        assert_eq!(shared.choices(), 2);

        let total = HostMetrics::new(3);
        total.absorb(&shared);
        total.absorb(&shared);
        assert_eq!(total.channel(1).one_way_delay.count(), 4);
        assert_eq!(total.channel(1).shares_received.get(), 4);
        assert_eq!(total.residency.count(), 2);
        assert!(total.channel(2).one_way_delay.is_empty());
        assert_eq!((total.km_count(1, 2), total.km_count(2, 2)), (2, 2));
        assert_eq!((total.sum_k(), total.sum_m(), total.choices()), (6, 8, 4));
    }

    #[test]
    fn snapshot_names_are_per_channel() {
        let m = HostMetrics::new(2);
        m.record_send(1);
        m.record_choice(1, 2);
        m.record_receive(1, 5_000, 400);
        let mut snap = MetricsSnapshot::default();
        m.extend_snapshot("remicss", "reassembly.residency", &mut snap);
        let counter = |name: &str| snap.counters.iter().find(|c| c.name == name);
        assert_eq!(counter("remicss.shares_sent.ch1").unwrap().value, 1);
        assert_eq!(counter("remicss.scheduler.km.1_2").unwrap().value, 1);
        // Only the cells drawn are exported.
        assert!(counter("remicss.scheduler.km.2_2").is_none());
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "remicss.delay.ch1" && h.sum == 400));
        // Channel 0 saw no deliveries: counter present at zero, but no
        // empty histograms.
        assert_eq!(counter("remicss.shares_received.ch0").unwrap().value, 0);
        assert!(!snap.histograms.iter().any(|h| h.name.ends_with("ch0")));
    }
}
