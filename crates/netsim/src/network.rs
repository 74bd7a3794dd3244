//! The two-host network: a bundle of full-duplex channels.
//!
//! The paper's testbed is exactly two hosts joined by five dedicated
//! wired channels; this module models that topology (and only that
//! topology — the model assumes disjoint point-to-point channels).

use crate::link::{Link, LinkConfig, LinkStats};
use crate::SimTime;

/// Index of a channel within the [`Network`].
pub type ChannelId = usize;

pub use mcss_base::Endpoint;

/// A full-duplex channel: an independent shaped link in each direction.
#[derive(Debug, Clone)]
pub struct Channel {
    forward: Link,  // A → B
    backward: Link, // B → A
}

impl Channel {
    /// The A→B direction.
    #[must_use]
    pub fn forward(&self) -> LinkView<'_> {
        LinkView {
            link: &self.forward,
        }
    }

    /// The B→A direction.
    #[must_use]
    pub fn backward(&self) -> LinkView<'_> {
        LinkView {
            link: &self.backward,
        }
    }

    pub(crate) fn link_from(&mut self, from: Endpoint) -> &mut Link {
        match from {
            Endpoint::A => &mut self.forward,
            Endpoint::B => &mut self.backward,
        }
    }

    pub(crate) fn link_from_ref(&self, from: Endpoint) -> &Link {
        match from {
            Endpoint::A => &self.forward,
            Endpoint::B => &self.backward,
        }
    }
}

/// Read-only view of one link direction.
#[derive(Debug, Clone, Copy)]
pub struct LinkView<'a> {
    link: &'a Link,
}

impl LinkView<'_> {
    /// The link's configuration.
    #[must_use]
    pub fn config(&self) -> &LinkConfig {
        self.link.config()
    }

    /// The link's counters.
    #[must_use]
    pub fn stats(&self) -> &LinkStats {
        self.link.stats()
    }

    /// Serialization backlog at time `now`.
    #[must_use]
    pub fn backlog(&self, now: SimTime) -> SimTime {
        self.link.backlog(now)
    }
}

/// The set of channels joining host A and host B.
#[derive(Debug, Clone)]
pub struct Network {
    channels: Vec<Channel>,
}

impl Network {
    /// Number of channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether the network has no channels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id]
    }

    /// Iterator over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    pub(crate) fn channel_mut(&mut self, id: ChannelId) -> &mut Channel {
        &mut self.channels[id]
    }

    /// Replaces the shaping of one link direction mid-simulation —
    /// failure injection, rate renegotiation, or mobility. Frames
    /// already in flight are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn reconfigure(&mut self, id: ChannelId, from: Endpoint, cfg: LinkConfig) {
        self.channels[id].link_from(from).reconfigure(cfg);
    }
}

/// Builder for a [`Network`].
///
/// # Examples
///
/// ```
/// use mcss_netsim::{LinkConfig, NetworkBuilder, SimTime};
///
/// let mut b = NetworkBuilder::new();
/// // Symmetric channel (same shaping both ways), like the testbed.
/// b.channel(LinkConfig::new(100e6).with_delay(SimTime::from_micros(250)));
/// // Asymmetric channel.
/// b.channel_asymmetric(LinkConfig::new(10e6), LinkConfig::new(1e6));
/// let net = b.build();
/// assert_eq!(net.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    channels: Vec<Channel>,
}

impl NetworkBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Adds a symmetric channel: the same shaping in both directions
    /// (the paper applies its `htb`/`netem` settings per direction,
    /// identically).
    pub fn channel(&mut self, cfg: LinkConfig) -> ChannelId {
        self.channel_asymmetric(cfg, cfg)
    }

    /// Adds a channel with distinct forward (A→B) and backward (B→A)
    /// shaping.
    pub fn channel_asymmetric(&mut self, forward: LinkConfig, backward: LinkConfig) -> ChannelId {
        let id = self.channels.len();
        self.channels.push(Channel {
            forward: Link::new(forward),
            backward: Link::new(backward),
        });
        id
    }

    /// Finalizes the network.
    #[must_use]
    pub fn build(self) -> Network {
        Network {
            channels: self.channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_peer() {
        assert_eq!(Endpoint::A.peer(), Endpoint::B);
        assert_eq!(Endpoint::B.peer(), Endpoint::A);
        assert_eq!(Endpoint::A.to_string(), "A");
        assert_eq!(Endpoint::B.to_string(), "B");
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = NetworkBuilder::new();
        assert_eq!(b.channel(LinkConfig::new(1e6)), 0);
        assert_eq!(b.channel(LinkConfig::new(2e6)), 1);
        let net = b.build();
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(net.channels().count(), 2);
        assert_eq!(net.channel(1).forward().config().rate_bps(), 2e6);
    }

    #[test]
    fn asymmetric_directions_independent() {
        let mut b = NetworkBuilder::new();
        b.channel_asymmetric(LinkConfig::new(10e6), LinkConfig::new(1e6));
        let net = b.build();
        assert_eq!(net.channel(0).forward().config().rate_bps(), 10e6);
        assert_eq!(net.channel(0).backward().config().rate_bps(), 1e6);
    }

    #[test]
    fn link_views_expose_state() {
        let mut b = NetworkBuilder::new();
        b.channel(LinkConfig::new(1e6));
        let net = b.build();
        let v = net.channel(0).forward();
        assert_eq!(v.stats().offered_frames, 0);
        assert_eq!(v.backlog(SimTime::ZERO), SimTime::ZERO);
    }
}
