//! Typed inputs and outputs of the sans-I/O protocol engine.
//!
//! The [`Engine`](crate::engine::Engine) never reads a clock, touches a
//! socket, or draws randomness on its own: a driver feeds it [`Event`]s
//! carrying explicit timestamps (plus an explicit RNG) and drains the
//! [`Action`]s the engine queued in response. The same event stream
//! always produces the same action stream, which is what makes the
//! protocol replayable, fuzzable, and transport-agnostic.
//!
//! The buffers in the actions belong to a pool: the engine's own, or,
//! for a hosted [`EngineCore`](crate::engine::EngineCore), the pool its
//! host lent it — where "give the buffer back" below means a `put` into
//! that pool, and every `frame` already starts with the host's prefix.
//!
//! | Event | Meaning |
//! |---|---|
//! | [`Event::Started`] | The driver is running; a paced source arms its first tick (nothing is armed for reassembly until a share is buffered). |
//! | [`Event::SymbolReady`] | An external source offers one symbol to send from host A. |
//! | [`Event::ShareReceived`] | A decoded share frame arrived on `channel` at `to`. |
//! | [`Event::ControlReceived`] | A decoded control frame arrived at `to`. |
//! | [`Event::TimerFired`] | A timer the engine set via [`Action::SetTimer`] is due. |
//! | [`Event::ChannelWritable`] | Channel readiness update: `from`'s send backlog on `channel`. |
//!
//! | Action | Driver obligation |
//! |---|---|
//! | [`Action::SendShare`] | Put `frame` on `channel` from `from` as it is; report the outcome via [`share_send_ok`](crate::engine::EngineCore::share_send_ok) / [`share_send_rejected`](crate::engine::Engine::share_send_rejected), and give the buffer back once sent ([`Engine::recycle`](crate::engine::Engine::recycle)). |
//! | [`Action::SendControl`] | Put `frame` on `channel` from `from`; give the buffer back once sent, or on local drop ([`Engine::control_send_rejected`](crate::engine::Engine::control_send_rejected)). |
//! | [`Action::SetTimer`] | Fire [`Event::TimerFired`] with `token` at (or after) `at`. Timers are set on demand — an idle engine has none outstanding — so a driver may sleep until the earliest one. |
//! | [`Action::DeliverSymbol`] | Hand `payload` to the application, then give the buffer back ([`Engine::recycle`](crate::engine::Engine::recycle)): it is the one the symbol was reconstructed into. |

use mcss_base::{Endpoint, SimTime};

use crate::wire::{ControlFrame, ShareRef};

/// Timer token for the paced symbol source tick.
pub const TIMER_SOURCE: u64 = 0;
/// Timer token for the reassembly sweep. Demand-armed and grid-aligned:
/// set only while a reassembly table buffers a partial symbol, never
/// more than one outstanding, for the first multiple of the table's
/// [`sweep_period`](crate::reassembly::ReassemblyCore::sweep_period)
/// strictly after the oldest partial's expiry, and set again after a
/// sweep only if partials remain.
pub const TIMER_SWEEP: u64 = 1;
/// Timer token for the receiver's adaptive feedback report.
pub const TIMER_FEEDBACK: u64 = 2;

/// One input to [`Engine::handle`](crate::engine::Engine::handle).
///
/// Events borrow frame contents from the driver's receive buffer; the
/// engine copies what it must retain (shares under reassembly) into
/// pooled storage, so the borrow ends with the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// The driver started; a paced engine arms its source tick (and the
    /// feedback report, with adaptation on). An external-source engine
    /// arms nothing.
    Started,
    /// An external source offers one symbol payload to transmit from
    /// host A ([`SourceMode::External`](crate::engine::SourceMode)
    /// drivers; paced sessions generate symbols from their own source
    /// timer instead).
    SymbolReady {
        /// The symbol payload to split and send.
        payload: &'a [u8],
    },
    /// A share frame was received on `channel` addressed to `to`.
    ShareReceived {
        /// Channel the share arrived on.
        channel: usize,
        /// Receiving endpoint.
        to: Endpoint,
        /// The decoded share, borrowing the driver's receive buffer.
        share: ShareRef<'a>,
    },
    /// A control (feedback) frame was received addressed to `to`.
    ControlReceived {
        /// Channel the frame arrived on.
        channel: usize,
        /// Receiving endpoint.
        to: Endpoint,
        /// The decoded control frame.
        control: ControlFrame,
    },
    /// A timer set via [`Action::SetTimer`] fired.
    TimerFired {
        /// The token the timer was set with.
        token: u64,
    },
    /// Readiness update: `from`'s send backlog on `channel` is
    /// `backlog`. The dynamic scheduler reads the most recent update
    /// per channel when choosing a share subset; drivers refresh all
    /// channels before any event that may transmit.
    ChannelWritable {
        /// The channel whose state changed.
        channel: usize,
        /// The sending endpoint the backlog belongs to.
        from: Endpoint,
        /// Serialization backlog (time until the queue drains).
        backlog: SimTime,
    },
}

/// One output drained from
/// [`Engine::poll_action`](crate::engine::Engine::poll_action).
///
/// Frame buffers come from the engine's pool (a hosted engine's: its
/// host's); drivers hand them back (via the send-outcome calls or
/// [`Engine::recycle`](crate::engine::Engine::recycle)) to keep the
/// steady state allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Transmit an encoded share frame on `channel` from `from`.
    SendShare {
        /// Channel to transmit on.
        channel: usize,
        /// Sending endpoint.
        from: Endpoint,
        /// Encoded wire frame (pooled buffer).
        frame: Vec<u8>,
    },
    /// Transmit an encoded control frame on `channel` from `from`.
    SendControl {
        /// Channel to transmit on.
        channel: usize,
        /// Sending endpoint.
        from: Endpoint,
        /// Encoded wire frame (pooled buffer).
        frame: Vec<u8>,
    },
    /// Arrange for [`Event::TimerFired`]`{token}` at absolute time `at`
    /// (clamp to now if `at` is already past).
    SetTimer {
        /// Token to fire with.
        token: u64,
        /// Absolute due time.
        at: SimTime,
    },
    /// A symbol was reconstructed at host B (external-source mode
    /// only). Return `payload` via
    /// [`Engine::recycle`](crate::engine::Engine::recycle) after use.
    DeliverSymbol {
        /// The symbol's sequence number.
        seq: u64,
        /// The reconstructed payload (pooled buffer).
        payload: Vec<u8>,
    },
}
