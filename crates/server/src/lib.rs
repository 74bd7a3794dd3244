//! `mcss-server`: a sharded multi-session server over the sans-I/O
//! ReMICSS engine.
//!
//! PR 5 made the protocol session a pure state machine precisely so
//! many of them can be multiplexed by one driver; this crate is that
//! driver at scale. Tens of thousands of engine instances share a
//! handful of nonblocking UDP sockets, partitioned across
//! thread-per-core **shards** by a 32-bit connection ID carried in a
//! demux prefix on every frame
//! ([`mcss_remicss::wire::demux_frame`]).
//!
//! * [`ShardSet`] — the deterministic core: every shard driven
//!   synchronously with explicit timestamps and per-session seeded
//!   RNGs. The test layer lives here: trace-replay determinism pins,
//!   demux isolation proptests, and the eavesdropper soak all drive
//!   this type. A frame delivered to a shard that does not own its
//!   session is handed to the owner in place: the set owns every shard,
//!   so the owner reads the very bytes the reader was given.
//! * [`UdpServer`] — the same shards on real threads, each owning one
//!   connected loopback socket pair per channel, so every datagram a
//!   shard reads is its own and nothing is handed off. Two event-loop
//!   backends ([`IoBackend`]):
//!   readiness-driven epoll with `recvmmsg`/`sendmmsg` batching
//!   (Linux, default) and a portable busy-poll fallback, selected via
//!   [`ServerConfig::io`] or `MCSS_SERVER_IO`.
//! * Each shard owns a [`BufferPool`](mcss_base::BufferPool) and a
//!   hierarchical timer wheel ([`mcss_base::queue`]), and shares no
//!   mutable state with another: a frame read by the wrong shard takes
//!   nothing from the reader, so the steady state is allocation-free
//!   whichever shard reads.
//! * Each shard also owns the protocol counters and the delay, gap and
//!   residency histograms its sessions record into
//!   ([`HostMetrics`](mcss_remicss::metrics::HostMetrics), one set per
//!   channel count hosted): they describe the channels, so a session
//!   adds none.
//! * [`ShardSet::metrics_snapshot`] aggregates per-shard counters and
//!   those per-channel distributions into an `mcss-obs`
//!   [`MetricsSnapshot`](mcss_obs::MetricsSnapshot) (JSON or
//!   Prometheus text).
//!
//! # Example: three sessions, two shards, one datagram path
//!
//! ```
//! use std::sync::Arc;
//! use mcss_base::{Endpoint, SimTime};
//! use mcss_remicss::config::ProtocolConfig;
//! use mcss_remicss::engine::SourceMode;
//! use mcss_server::{ServerConfig, ShardSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0)?.with_symbol_bytes(32));
//! let mut set = ShardSet::new(&ServerConfig::with_shards(2));
//! for cid in [1u32, 2, 3] {
//!     set.add_session(cid, Arc::clone(&protocol), 5, SourceMode::External, 7)?;
//!     set.start(SimTime::ZERO, cid);
//! }
//! let now = SimTime::from_micros(50);
//! set.offer_symbol(now, 1, &[0xAB; 32]);
//! // Session 1's shares are now queued outbound on shard 1 (1 % 2),
//! // each datagram carrying the "RX" prefix with connection ID 1.
//! let mut datagrams = Vec::new();
//! set.shard_mut(1).drain_outbound(|d| datagrams.push((d.channel, d.bytes.clone())));
//! assert!(!datagrams.is_empty());
//! // Deliver them back through the demux path, as read by the *other*
//! // shard: it routes each to shard 1, which reassembles it there.
//! for (channel, bytes) in &datagrams {
//!     set.deliver_datagram(now, *channel, Endpoint::B, bytes, 0);
//! }
//! assert_eq!(set.stats(0).handoff_out, datagrams.len() as u64);
//! assert_eq!(set.stats(1).handoff_in, datagrams.len() as u64);
//! # Ok(())
//! # }
//! ```

pub mod shard;
pub mod stats;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod udp;

pub use shard::{OutboundDatagram, ServerConfig, ServerError, Shard, ShardSet, MAX_DATAGRAM};
pub use stats::{ShardStats, ShardStatsSnapshot};
pub use udp::{IoBackend, IoMode, PhasedSummary, RunPhases, ServerSummary, UdpServer, WindowStats};
