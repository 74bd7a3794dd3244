//! A deterministic discrete-event network simulator reproducing the
//! evaluation testbed of Pohly & McDaniel (DSN 2016).
//!
//! The paper's experiments run between **two hosts** joined by five
//! dedicated, shaped channels: the Linux `htb` queueing class limits each
//! channel's rate and `netem` adds loss and delay. This simulator models
//! exactly that physics:
//!
//! * each [`Channel`] is a full-duplex pair of links;
//! * each link serializes frames at a configured bit rate behind a
//!   bounded FIFO (token-bucket semantics, like a single `htb` class);
//! * each frame independently survives with probability `1 − loss` and,
//!   if it survives, arrives one `delay` later (like `netem`);
//! * everything is driven by a single event queue (a hierarchical timer
//!   wheel, bit-identical to the reference binary heap — see
//!   [`mcss_base::queue`]) with deterministic tie-breaking, and all
//!   randomness comes from one seeded RNG — the same seed always yields
//!   the same run.
//!
//! A frame is a plain `Vec<u8>`: [`Context::send`] moves it into the
//! link and [`Application::on_deliver`] hands the same allocation to the
//! receiver. A frame the local queue refuses comes straight back from
//! `send`; one lost in flight comes back emptied through
//! [`Context::take_lost`]. Readiness is the link's serialization
//! backlog ([`Context::backlog`]), not an `epoll` flag.
//!
//! Application logic (the two probes in [`traffic`], the ReMICSS
//! protocol) plugs in via the [`Application`] trait and interacts with
//! the network through a [`Context`].
//!
//! # Examples
//!
//! Measure the throughput of a single 8 Mbit/s channel:
//!
//! ```
//! use mcss_netsim::{
//!     Application, Context, Endpoint, LinkConfig, NetworkBuilder, SimTime,
//!     Simulator,
//! };
//!
//! struct Blaster;
//! impl Application for Blaster {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.set_timer(SimTime::ZERO, 0);
//!     }
//!     fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
//!         // Offer 16 Mbit/s into 8 Mbit/s; the queue sheds the excess.
//!         for _ in 0..16 {
//!             let _ = ctx.send(0, Endpoint::A, vec![0u8; 125]);
//!         }
//!         let next = ctx.now() + SimTime::from_millis(1);
//!         ctx.set_timer(next, 0);
//!     }
//! }
//!
//! let mut net = NetworkBuilder::new();
//! net.channel(LinkConfig::new(8_000_000.0));
//! let mut sim = Simulator::new(net.build(), Blaster, 7);
//! sim.run_until(SimTime::from_secs(1));
//! let delivered = sim.network().channel(0).forward().stats().delivered_bits;
//! let rate = delivered as f64; // bits over 1 second
//! assert!((rate - 8_000_000.0).abs() / 8_000_000.0 < 0.02);
//! ```

mod link;
pub mod network;
mod sim;
pub mod traffic;

pub use link::{LinkConfig, LinkStats};
pub use mcss_base::{QueueKind, SimTime};
pub use network::{Channel, ChannelId, Endpoint, Network, NetworkBuilder};
pub use sim::{Application, Context, Simulator};
