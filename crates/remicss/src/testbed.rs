//! Bridging the analytic model and the simulator.
//!
//! The model describes channels abstractly (`r` in shares per unit time);
//! the setups in [`mcss_core::setups`] store testbed rates in Mbit/s and
//! delays in seconds. This module converts a model [`ChannelSet`] into a
//! simulated [`Network`] and back into share-rate units, so that optimal
//! predictions and simulated measurements are directly comparable.

use mcss_core::{Channel, ChannelSet, ModelError};
use mcss_netsim::traffic::{ChannelProbe, EchoBenchmark};
use mcss_netsim::{LinkConfig, Network, NetworkBuilder, SimTime, Simulator};

use crate::config::ProtocolConfig;

/// Builds the simulated network for a model channel set: channel `i`
/// becomes a symmetric full-duplex link with `rateᵢ` Mbit/s, loss `lᵢ`,
/// and one-way delay `dᵢ` seconds per direction — the testbed's
/// `htb` + `netem` configuration.
///
/// The protocol's readiness threshold and queue sizing come from
/// `config`.
#[must_use]
pub fn network_for(channels: &ChannelSet, config: &ProtocolConfig) -> Network {
    let mut b = NetworkBuilder::new();
    for ch in channels {
        let mut cfg =
            LinkConfig::new(ch.rate() * 1e6).with_delay(SimTime::from_secs_f64(ch.delay()));
        if ch.loss() > 0.0 {
            cfg = cfg.with_loss(ch.loss());
        }
        // Queue roughly one readiness window beyond the threshold so a
        // "ready" channel can always absorb a frame without dropping.
        cfg = cfg.with_queue_limit(config.readiness_threshold() * 8);
        b.channel(cfg);
    }
    b.build()
}

/// Converts a Mbit/s channel set into share-per-second units for the
/// given protocol framing: `rᵢ [shares/s] = rᵢ [Mbit/s] · 10⁶ / (wire
/// bytes per share · 8)`. Risk, loss, and delay are unchanged.
///
/// # Errors
///
/// Propagates [`ModelError::Channel`] (cannot occur for a valid input
/// set).
pub fn share_rate_channels(
    channels: &ChannelSet,
    config: &ProtocolConfig,
) -> Result<ChannelSet, ModelError> {
    let bits_per_share = (config.share_wire_bytes() * 8) as f64;
    let converted = channels
        .iter()
        .map(|ch| {
            Channel::new(
                ch.risk(),
                ch.loss(),
                ch.delay(),
                ch.rate() * 1e6 / bits_per_share,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChannelSet::new(converted)?)
}

/// The Theorem 4 optimal *symbol* rate (symbols per second) for this
/// channel set, protocol framing, and the config's `μ`.
///
/// # Errors
///
/// [`ModelError::InvalidParameters`] if the config's `μ` exceeds the
/// number of channels.
pub fn optimal_symbol_rate(
    channels: &ChannelSet,
    config: &ProtocolConfig,
) -> Result<f64, ModelError> {
    let share_channels = share_rate_channels(channels, config)?;
    mcss_core::optimal::optimal_rate(&share_channels, config.mu())
}

/// Measures a [`ChannelSet`] from a live (simulated) network, exactly
/// as §VI-A calibrates the testbed before each experiment: an
/// `iperf`-style probe per channel for rate, a half-rate probe for loss,
/// and an echo benchmark for one-way delay (RTT/2, minus the probe's
/// own serialization time). Eavesdropping risks are not measurable from
/// traffic, so they are supplied by the caller (one per channel).
///
/// `fresh_network` must produce an identically-configured network with
/// clean statistics on every call (each measurement runs in isolation so
/// probes never share a bottleneck).
///
/// # Errors
///
/// [`ModelError::Channel`] if a supplied risk is out of range or a
/// measured property falls outside the model's domain (e.g. a channel
/// that delivered nothing).
///
/// # Examples
///
/// ```no_run
/// use mcss_remicss::{config::ProtocolConfig, testbed};
/// use mcss_netsim::SimTime;
///
/// # fn main() -> Result<(), mcss_core::ModelError> {
/// let truth = mcss_core::setups::lossy();
/// let config = ProtocolConfig::new(1.0, 1.0)?;
/// let measured = testbed::calibrate(
///     || testbed::network_for(&truth, &config),
///     &[0.1; 5],
///     SimTime::from_secs(1),
///     7,
/// )?;
/// assert_eq!(measured.len(), truth.len());
/// # Ok(())
/// # }
/// ```
pub fn calibrate(
    mut fresh_network: impl FnMut() -> Network,
    risks: &[f64],
    duration: SimTime,
    seed: u64,
) -> Result<ChannelSet, ModelError> {
    const PROBE_BYTES: usize = 1250;
    const ECHO_BYTES: usize = 125;
    let n = fresh_network().len();
    assert_eq!(risks.len(), n, "one risk per channel");
    let mut channels = Vec::with_capacity(n);
    for (i, &risk) in risks.iter().enumerate() {
        // 1. Rate: saturate the channel, report the shaped rate.
        let probe = ChannelProbe::new(i, 2e9, PROBE_BYTES, duration);
        let mut sim = Simulator::new(fresh_network(), probe, seed ^ (i as u64) << 1);
        sim.run_until(duration + SimTime::from_secs(1));
        let rate_bps = sim.app().achieved_bps();

        // 2. Loss: probe at half the measured rate so the queue never
        //    drops; residual loss is the channel's own.
        let probe = ChannelProbe::new(i, rate_bps * 0.5, PROBE_BYTES, duration);
        let mut sim = Simulator::new(fresh_network(), probe, seed ^ (i as u64) << 2);
        sim.run_until(duration + SimTime::from_secs(1));
        let loss = sim.app().loss_fraction().clamp(0.0, 0.999_999);

        // The saturation probe observed goodput, which a channel's own
        // random loss shrinks by (1 − loss); undo that to report the
        // line rate rather than the deliverable rate.
        let rate_bps = rate_bps / (1.0 - loss);

        // 3. Delay: low-rate echo; one-way = RTT/2 minus the probe's own
        //    serialization at the measured line rate.
        let echo_rate = (rate_bps * 0.2).min(1e6);
        let echo = EchoBenchmark::new(i, echo_rate, ECHO_BYTES, duration);
        let mut sim = Simulator::new(fresh_network(), echo, seed ^ (i as u64) << 3);
        sim.run_until(duration + SimTime::from_secs(1));
        let one_way = sim
            .app()
            .mean_one_way_delay()
            .map_or(0.0, |d| d.as_secs_f64());
        let serialization = (ECHO_BYTES * 8) as f64 / rate_bps;
        let delay = (one_way - serialization).max(0.0);

        channels.push(Channel::new(risk, loss, delay, rate_bps / 1e6)?);
    }
    Ok(ChannelSet::new(channels)?)
}

/// Payload bits per second carried by a symbol rate under this framing.
#[must_use]
pub fn payload_bps(symbol_rate: f64, config: &ProtocolConfig) -> f64 {
    symbol_rate * (config.symbol_bytes() * 8) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcss_core::setups;

    #[test]
    fn network_mirrors_channels() {
        let channels = setups::lossy();
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let net = network_for(&channels, &config);
        assert_eq!(net.len(), 5);
        for (i, ch) in channels.iter().enumerate() {
            let link = net.channel(i).forward();
            assert_eq!(link.config().rate_bps(), ch.rate() * 1e6);
            assert_eq!(link.config().loss(), ch.loss());
        }
    }

    #[test]
    fn delays_converted_to_simtime() {
        let channels = setups::delayed();
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let net = network_for(&channels, &config);
        assert_eq!(
            net.channel(2).forward().config().delay(),
            SimTime::from_micros(12_500)
        );
    }

    /// Shares of 10 000 bits on the wire. Pinned to Shamir, whatever
    /// `MCSS_CODEC` says: only its framing (24-byte header, share as
    /// long as the symbol) makes 1226 bytes come out round.
    fn round_share_config() -> ProtocolConfig {
        ProtocolConfig::new(1.0, 1.0)
            .unwrap()
            .with_symbol_bytes(1226)
            .with_codec(mcss_codec::CodecId::Shamir)
    }

    #[test]
    fn share_rate_conversion() {
        let channels = setups::diverse();
        let config = round_share_config();
        // Wire share = 1226 + 24 = 1250 bytes = 10_000 bits.
        let sc = share_rate_channels(&channels, &config).unwrap();
        assert!((sc.channel(0).rate() - 500.0).abs() < 1e-9); // 5 Mbit/s
        assert!((sc.channel(4).rate() - 10_000.0).abs() < 1e-9); // 100 Mbit/s
    }

    #[test]
    fn optimal_symbol_rate_at_mu_one_is_total() {
        let channels = setups::diverse();
        let config = round_share_config();
        let r = optimal_symbol_rate(&channels, &config).unwrap();
        // 250 Mbit/s over 10 kbit shares.
        assert!((r - 25_000.0).abs() < 1e-6);
        assert!((payload_bps(r, &config) - 25_000.0 * 1226.0 * 8.0).abs() < 1e-6);
    }

    #[test]
    fn calibration_recovers_lossy_setup() {
        let truth = setups::lossy();
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let measured = calibrate(
            || network_for(&truth, &config),
            &[0.1; 5],
            SimTime::from_secs(2),
            99,
        )
        .unwrap();
        for (i, (t, m)) in truth.iter().zip(measured.iter()).enumerate() {
            assert!(
                (m.rate() - t.rate()).abs() / t.rate() < 0.03,
                "channel {i} rate: measured {} truth {}",
                m.rate(),
                t.rate()
            );
            assert!(
                (m.loss() - t.loss()).abs() < 0.01,
                "channel {i} loss: measured {} truth {}",
                m.loss(),
                t.loss()
            );
            assert_eq!(m.risk(), 0.1);
        }
    }

    #[test]
    fn calibration_recovers_delays() {
        let truth = setups::delayed();
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let measured = calibrate(
            || network_for(&truth, &config),
            &[0.1; 5],
            SimTime::from_secs(1),
            41,
        )
        .unwrap();
        for (i, (t, m)) in truth.iter().zip(measured.iter()).enumerate() {
            assert!(
                (m.delay() - t.delay()).abs() < 0.2e-3,
                "channel {i} delay: measured {} truth {}",
                m.delay(),
                t.delay()
            );
        }
    }

    #[test]
    fn mu_exceeding_channel_count_rejected() {
        let channels = setups::diverse();
        let config = ProtocolConfig::new(1.0, 6.0).unwrap();
        assert!(optimal_symbol_rate(&channels, &config).is_err());
    }
}
