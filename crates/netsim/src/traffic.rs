//! Traffic generators: the simulator-side equivalents of the paper's
//! measurement tools.
//!
//! * [`Pacer`] — drift-free constant-bit-rate scheduling, the sending
//!   discipline of `iperf`'s UDP mode.
//! * [`ChannelProbe`] — measures one channel's deliverable rate and loss
//!   by sending paced sequenced datagrams (how the paper obtains the
//!   vectors `r⃗` and `l⃗` before each experiment).
//! * [`EchoBenchmark`] — the paper's custom RTT utility: timestamped
//!   datagrams echoed by the far host; one-way delay is RTT/2.

use crate::frame::Frame;
use crate::network::{ChannelId, Endpoint};
use crate::sim::{Application, Context};
use crate::stats::{DelaySummary, SequenceLossMeter, ThroughputMeter};
use crate::SimTime;

pub use mcss_base::Pacer;

/// `iperf`-style single-channel UDP probe: host A sends sequenced
/// datagrams at a fixed offered rate for a fixed duration; host B counts
/// them. Measures the channel's deliverable rate and loss.
///
/// Used by the benchmark harness to calibrate `r⃗` exactly as §VI-A does
/// ("We begin by using this method to obtain an accurate rate for each
/// individual channel").
#[derive(Debug)]
pub struct ChannelProbe {
    channel: ChannelId,
    payload_bytes: usize,
    duration: SimTime,
    pacer: Pacer,
    next_seq: u64,
    received: ThroughputMeter,
    loss: SequenceLossMeter,
}

impl ChannelProbe {
    /// Probes `channel` with `payload_bytes`-byte datagrams offered at
    /// `offered_bps` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes < 8` (the sequence number needs 8 bytes)
    /// or the rate is invalid.
    #[must_use]
    pub fn new(
        channel: ChannelId,
        offered_bps: f64,
        payload_bytes: usize,
        duration: SimTime,
    ) -> Self {
        assert!(payload_bytes >= 8, "payload must hold a sequence number");
        ChannelProbe {
            channel,
            payload_bytes,
            duration,
            pacer: Pacer::new(offered_bps, payload_bytes as u64 * 8),
            next_seq: 0,
            received: ThroughputMeter::new(),
            loss: SequenceLossMeter::new(),
        }
    }

    /// Achieved receive rate in bits per second over the probe duration.
    #[must_use]
    pub fn achieved_bps(&self) -> f64 {
        self.received.rate_bps(self.duration)
    }

    /// Datagram loss fraction observed by the receiver.
    #[must_use]
    pub fn loss_fraction(&self) -> f64 {
        self.loss.loss_fraction()
    }

    /// The probe duration.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.duration
    }

    fn frame(&mut self) -> Frame {
        let mut payload = vec![0u8; self.payload_bytes];
        payload[..8].copy_from_slice(&self.next_seq.to_be_bytes());
        self.next_seq += 1;
        Frame::new(payload)
    }
}

impl Application for ChannelProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let at = self.pacer.next_tick();
        ctx.set_timer(at, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if ctx.now() >= self.duration {
            return;
        }
        let frame = self.frame();
        let _ = ctx.send(self.channel, Endpoint::A, frame);
        let at = self.pacer.next_tick();
        ctx.set_timer(at, 0);
    }

    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        _channel: ChannelId,
        to: Endpoint,
        frame: Frame,
    ) {
        if to == Endpoint::B && ctx.now() <= self.duration {
            let seq = u64::from_be_bytes(frame.payload()[..8].try_into().expect("8-byte seq"));
            self.loss.record(seq);
            self.received.record(ctx.now(), frame.bits());
        }
    }
}

/// The paper's RTT measurement utility (§VI-B): host A sends paced,
/// timestamped datagrams on one channel; host B echoes them back on the
/// same channel; A accumulates round-trip times. One-way delay is
/// reported as RTT/2, exactly as the paper divides by two.
#[derive(Debug)]
pub struct EchoBenchmark {
    channel: ChannelId,
    payload_bytes: usize,
    duration: SimTime,
    pacer: Pacer,
    rtts: DelaySummary,
}

impl EchoBenchmark {
    /// Echo-probes `channel` at `offered_bps` for `duration`.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes < 8` (the timestamp needs 8 bytes).
    #[must_use]
    pub fn new(
        channel: ChannelId,
        offered_bps: f64,
        payload_bytes: usize,
        duration: SimTime,
    ) -> Self {
        assert!(payload_bytes >= 8, "payload must hold a timestamp");
        EchoBenchmark {
            channel,
            payload_bytes,
            duration,
            pacer: Pacer::new(offered_bps, payload_bytes as u64 * 8),
            rtts: DelaySummary::new(),
        }
    }

    /// Round-trip time summary.
    #[must_use]
    pub fn rtt(&self) -> &DelaySummary {
        &self.rtts
    }

    /// Mean one-way delay (RTT/2), or `None` if nothing was echoed.
    #[must_use]
    pub fn mean_one_way_delay(&self) -> Option<SimTime> {
        self.rtts
            .mean()
            .map(|m| SimTime::from_nanos(m.as_nanos() / 2))
    }
}

impl Application for EchoBenchmark {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let at = self.pacer.next_tick();
        ctx.set_timer(at, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if ctx.now() >= self.duration {
            return;
        }
        let mut payload = vec![0u8; self.payload_bytes];
        payload[..8].copy_from_slice(&ctx.now().as_nanos().to_be_bytes());
        let _ = ctx.send(self.channel, Endpoint::A, Frame::new(payload));
        let at = self.pacer.next_tick();
        ctx.set_timer(at, 0);
    }

    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        channel: ChannelId,
        to: Endpoint,
        frame: Frame,
    ) {
        match to {
            Endpoint::B => {
                // Echo server: bounce the datagram back unchanged.
                let _ = ctx.send(channel, Endpoint::B, frame);
            }
            Endpoint::A => {
                let sent =
                    u64::from_be_bytes(frame.payload()[..8].try_into().expect("8-byte stamp"));
                self.rtts.record(ctx.now() - SimTime::from_nanos(sent));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::network::NetworkBuilder;
    use crate::sim::Simulator;

    fn net(cfg: LinkConfig) -> crate::network::Network {
        let mut b = NetworkBuilder::new();
        b.channel(cfg);
        b.build()
    }

    #[test]
    fn probe_measures_shaped_rate() {
        // Offer 10 Mbit/s into a 5 Mbit/s channel: achieve ≈ 5 Mbit/s.
        let probe = ChannelProbe::new(0, 10e6, 125, SimTime::from_secs(1));
        let mut sim = Simulator::new(net(LinkConfig::new(5e6)), probe, 3);
        sim.run_until(SimTime::from_secs(2));
        let got = sim.app().achieved_bps();
        assert!(
            (got - 5e6).abs() / 5e6 < 0.03,
            "achieved {got} expected ~5e6"
        );
    }

    #[test]
    fn probe_measures_undersubscribed_rate() {
        // Offer 2 Mbit/s into a 100 Mbit/s channel: achieve the offer.
        let probe = ChannelProbe::new(0, 2e6, 125, SimTime::from_secs(1));
        let mut sim = Simulator::new(net(LinkConfig::new(100e6)), probe, 3);
        sim.run_until(SimTime::from_secs(2));
        let got = sim.app().achieved_bps();
        assert!((got - 2e6).abs() / 2e6 < 0.02, "achieved {got}");
    }

    #[test]
    fn probe_measures_loss() {
        let probe = ChannelProbe::new(0, 5e6, 125, SimTime::from_secs(2));
        let cfg = LinkConfig::new(100e6).with_loss(0.02);
        let mut sim = Simulator::new(net(cfg), probe, 11);
        sim.run_until(SimTime::from_secs(3));
        let got = sim.app().loss_fraction();
        assert!((got - 0.02).abs() < 0.008, "loss {got} expected ~0.02");
    }

    #[test]
    fn echo_measures_one_way_delay() {
        let bench = EchoBenchmark::new(0, 1e6, 125, SimTime::from_millis(500));
        let cfg = LinkConfig::new(100e6).with_delay(SimTime::from_micros(2500));
        let mut sim = Simulator::new(net(cfg), bench, 5);
        sim.run_until(SimTime::from_secs(1));
        let one_way = sim.app().mean_one_way_delay().unwrap();
        // 2.5 ms propagation + 10 µs serialization each way.
        let expect = SimTime::from_micros(2510);
        let err = one_way
            .saturating_sub(expect)
            .max(expect.saturating_sub(one_way));
        assert!(
            err < SimTime::from_micros(20),
            "one-way {one_way} expected ~{expect}"
        );
        assert!(sim.app().rtt().count() > 100);
    }

    #[test]
    #[should_panic(expected = "sequence number")]
    fn probe_payload_too_small() {
        let _ = ChannelProbe::new(0, 1e6, 4, SimTime::from_secs(1));
    }
}
