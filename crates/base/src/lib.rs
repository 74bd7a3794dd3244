//! Runtime primitives shared by every layer of the workspace that is
//! *not* allowed to depend on the discrete-event simulator: the
//! sans-I/O protocol engine (`mcss-remicss`'s `engine` module), the
//! real-socket drivers, and the simulator itself.
//!
//! Everything here is pure data and arithmetic — no I/O, no clocks, no
//! randomness — which is exactly what lets the protocol core run
//! unchanged under simulated time and under a monotonic wall clock. (One
//! exception: [`hash`] draws a per-process seed. It decides only where
//! keys sit inside a map no code iterates, so no behaviour observes it.)
//!
//! * [`SimTime`] — nanosecond timestamps/durations. Despite the name
//!   (kept from its simulator origin), nothing about it is
//!   simulation-specific; drivers map any monotonic nanosecond count
//!   onto it.
//! * [`Endpoint`] — which of the two hosts of a point-to-point
//!   multichannel bundle is acting.
//! * [`BufferPool`] / [`BufHandle`] — capacity-recycling byte buffers,
//!   the backbone of the zero-allocation data path.
//! * [`Pacer`] — drift-free constant-rate tick scheduling.
//! * [`hash`] — [`IntMap`](hash::IntMap), the hash map for integer keys
//!   (connection IDs, sequence numbers): one multiply a lookup, seeded.
//! * [`queue`] — pending-event storage: a reference binary heap and a
//!   bit-identical hierarchical timer wheel, shared by the simulator's
//!   event loop and each server shard's session timer multiplexer.
//! * [`stats`] — throughput, sequence-loss, and delay meters.
//!
//! `mcss-netsim` re-exports all of these under their historical paths
//! (`mcss_netsim::SimTime`, `mcss_netsim::pool`, …), so simulator-side
//! code keeps compiling unchanged.

pub mod endpoint;
pub mod hash;
mod pace;
pub mod pool;
pub mod queue;
pub mod stats;
mod time;

pub use endpoint::Endpoint;
pub use pace::Pacer;
pub use pool::{BufHandle, BufferPool};
pub use queue::{EventQueue, QueueKind};
pub use time::SimTime;
