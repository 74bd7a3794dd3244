//! Opt-in event tracing: a bounded ring buffer of everything the
//! simulator did, for debugging protocol behaviour after the fact.
//!
//! Tracing is off by default (simulations at millions of events should
//! not pay for it); enable it with
//! [`Simulator::enable_trace`](crate::Simulator::enable_trace).
//!
//! # Examples
//!
//! ```
//! use mcss_netsim::{
//!     trace::TraceKind, Application, Context, Endpoint, Frame, LinkConfig,
//!     NetworkBuilder, SimTime, Simulator,
//! };
//!
//! struct Once;
//! impl Application for Once {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 10]));
//!     }
//! }
//!
//! let mut b = NetworkBuilder::new();
//! b.channel(LinkConfig::new(1e6));
//! let mut sim = Simulator::new(b.build(), Once, 1);
//! sim.enable_trace(100);
//! sim.run_to_completion();
//! let trace = sim.trace().unwrap();
//! assert!(trace
//!     .events()
//!     .any(|e| matches!(e.kind, TraceKind::Deliver { .. })));
//! ```

use std::collections::VecDeque;

use crate::link::SendOutcome;
use crate::network::{ChannelId, Endpoint};
use crate::SimTime;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The application offered a frame to a channel.
    Send {
        /// The channel used.
        channel: ChannelId,
        /// The sending endpoint.
        from: Endpoint,
        /// Payload size in bytes.
        bytes: usize,
        /// Whether the local queue accepted it.
        outcome: SendOutcome,
    },
    /// A frame arrived at an endpoint.
    Deliver {
        /// The channel used.
        channel: ChannelId,
        /// The receiving endpoint.
        to: Endpoint,
        /// Payload size in bytes.
        bytes: usize,
    },
    /// An application timer fired.
    Timer {
        /// The application-defined token.
        token: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded ring buffer of [`TraceEvent`]s; the oldest events are
/// discarded once `capacity` is reached.
#[derive(Debug, Clone)]
pub struct Trace {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    discarded: u64,
}

impl Trace {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            discarded: 0,
        }
    }

    pub(crate) fn record(&mut self, at: SimTime, kind: TraceKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.discarded += 1;
        }
        self.events.push_back(TraceEvent { at, kind });
    }

    /// Iterator over retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_discards_oldest() {
        let mut t = Trace::new(2);
        t.record(SimTime::from_nanos(1), TraceKind::Timer { token: 1 });
        t.record(SimTime::from_nanos(2), TraceKind::Timer { token: 2 });
        t.record(SimTime::from_nanos(3), TraceKind::Timer { token: 3 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.discarded(), 1);
        let tokens: Vec<u64> = t
            .events()
            .map(|e| match e.kind {
                TraceKind::Timer { token } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![2, 3]);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Trace::new(0);
    }
}
