//! ReMICSS: the reference multichannel secret sharing protocol of §V,
//! built as a sans-I/O core with pluggable drivers.
//!
//! ReMICSS is a **best-effort** protocol: each source symbol is split
//! into `m` Shamir shares with threshold `k`, one share is transmitted
//! per channel of a chosen subset, and the receiver reconstructs as soon
//! as any `k` shares arrive. Lost shares are never retransmitted — up to
//! `m − k` losses per symbol are absorbed by the threshold scheme itself.
//!
//! The crate provides the protocol pieces, a pure engine, and the
//! simulator driver (`mcss-server`'s `UdpServer` runs the same engine
//! over real sockets):
//!
//! * [`wire`] — the share frame codec (what travels on each channel);
//! * [`scheduler`] — per-symbol `(k, M)` selection: the paper's *dynamic
//!   share schedule* (first-`m`-ready, epoll-style), an explicit
//!   [`ShareSchedule`](mcss_core::ShareSchedule)-driven static scheduler,
//!   and a round-robin baseline;
//! * [`reassembly`] — the receiver's share table with timeout eviction
//!   and a memory cap, borrowed from IP fragment reassembly;
//! * [`engine`] — the sans-I/O protocol core: typed [`actions::Event`]s
//!   in (explicit timestamps, explicit RNG), [`actions::Action`]s out,
//!   no clock, no sockets, no allocation in steady state;
//! * [`session`] *(feature `sim`, default)* — the discrete-event
//!   simulator driver: a thin [`mcss_netsim::Application`] adapter over
//!   the engine, reporting achieved rate, loss, and delay;
//! * [`cpu`] — an optional endpoint processing-cost model used to
//!   reproduce the paper's high-bandwidth saturation experiments
//!   (Figures 6 and 7);
//! * [`adaptive`] — an extension beyond the paper: closed-loop
//!   adaptation of `μ` from receiver feedback, holding a loss target
//!   under unknown or drifting channel conditions.
//!
//! # Examples
//!
//! Run one second of protocol traffic over the paper's Lossy setup and
//! inspect the report:
//!
//! ```
//! use mcss_remicss::{
//!     config::ProtocolConfig,
//!     session::{Session, Workload},
//!     testbed,
//! };
//! use mcss_netsim::{SimTime, Simulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let channels = mcss_core::setups::lossy();
//! let config = ProtocolConfig::new(2.0, 3.0)?; // κ = 2, μ = 3
//! let network = testbed::network_for(&channels, &config);
//! let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config)?;
//! let session = Session::new(
//!     config,
//!     channels.len(),
//!     Workload::cbr(offered, SimTime::from_secs(1)),
//! )?;
//! let mut sim = Simulator::new(network, session, 42);
//! sim.run_until(SimTime::from_secs(2));
//! let report = sim.app().report(SimTime::from_secs(1));
//! assert!(report.delivered_symbols > 0);
//! assert!(report.loss_fraction < 0.05);
//! # Ok(())
//! # }
//! ```

pub mod actions;
pub mod adaptive;
pub mod config;
pub mod cpu;
pub mod engine;
pub mod metrics;
pub mod reassembly;
pub mod scheduler;
#[cfg(feature = "sim")]
pub mod session;
#[cfg(feature = "sim")]
pub mod testbed;
pub mod wire;

pub use actions::{Action, Event};
pub use config::{ProtocolConfig, SchedulerKind};
pub use engine::{Engine, SessionReport, SourceMode, Workload};
pub use metrics::HostMetrics;
#[cfg(feature = "sim")]
pub use session::Session;
