//! Per-shard operational counters.
//!
//! These are plain [`AtomicU64`]s rather than `mcss-obs` counters so
//! the demux/handoff invariants they witness stay observable in every
//! build — the proptests assert on them with telemetry compiled out.
//! [`ShardStatsSnapshot::extend_snapshot`] bridges them into the
//! `mcss-obs` world as an always-available [`MetricsSnapshot`] fragment.
//!
//! They are atomics so that *readers* on other threads (a benchmark's
//! sampler, a metrics scrape) see whole values, not so that several
//! threads can write: a shard's counters have one writer, its own
//! thread, and are bumped with a plain load, add and store.

use std::sync::atomic::{AtomicU64, Ordering};

use mcss_obs::{CounterSnapshot, MetricsSnapshot};

/// Declares the atomic counter struct, its plain-data snapshot twin,
/// and the name table the metrics export walks — one source of truth
/// for the field list.
macro_rules! shard_stats {
    ($($(#[doc = $doc:literal])+ $field:ident),+ $(,)?) => {
        /// Live per-shard counters, shared between the owning shard
        /// thread and metric aggregators.
        ///
        /// **One writer at a time**: the thread that holds the shard's
        /// `&mut Shard` (its worker thread, or whoever drives the
        /// [`ShardSet`](crate::ShardSet) before the workers start).
        /// Any thread may call [`get`](ShardStats::get) meanwhile and
        /// sees whole, non-decreasing values. Debug builds assert the
        /// contract on every bump.
        #[derive(Debug, Default)]
        pub struct ShardStats {
            $($(#[doc = $doc])+ pub $field: AtomicU64,)+
        }

        /// A [`ShardStats`] value frozen at one instant.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ShardStatsSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl ShardStats {
            /// Freezes the current counter values.
            #[must_use]
            pub fn get(&self) -> ShardStatsSnapshot {
                ShardStatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl ShardStatsSnapshot {
            /// Adds another snapshot's counts (for cross-shard totals).
            pub fn add(&mut self, other: &ShardStatsSnapshot) {
                $(self.$field += other.$field;)+
            }

            /// Appends one counter per field, named
            /// `{prefix}.{field}`, onto `snapshot`.
            pub fn extend_snapshot(&self, prefix: &str, snapshot: &mut MetricsSnapshot) {
                $(snapshot.counters.push(CounterSnapshot {
                    name: format!("{prefix}.{}", stringify!($field)),
                    value: self.$field,
                });)+
            }
        }
    };
}

shard_stats! {
    /// Datagrams read off the wire by this shard.
    datagrams_received,
    /// Datagrams this shard put on the wire.
    datagrams_sent,
    /// Encoded share frames queued outbound.
    shares_sent,
    /// Encoded control frames queued outbound.
    controls_sent,
    /// Symbols reconstructed by this shard's sessions.
    symbols_delivered,
    /// Session timers fired from the shard wheel.
    timers_fired,
    /// Frames received here but owned elsewhere, handed off.
    handoff_out,
    /// Frames processed here that another shard received.
    handoff_in,
    /// Handoffs dropped because the owner's inbox was full.
    handoff_rejected,
    /// Handoff buffers adopted locally because the origin's
    /// return ring was full.
    returns_migrated,
    /// Prefixed frames whose connection ID matched no session.
    dropped_unknown_cid,
    /// Datagrams with no recognizable framing (bad demux magic,
    /// truncated or mutated prefix).
    dropped_malformed,
    /// Frames routed to a session but undecodable as share/control.
    dropped_bad_frame,
    /// Share frames carrying a codec id this build does not know;
    /// counted apart from `dropped_bad_frame` so a codec-version skew
    /// between peers is visible as itself, not as generic garbage.
    dropped_unknown_codec,
    /// Bare frames without the connection-ID prefix: they name no
    /// session, so a shard drops them.
    dropped_legacy,
    /// Outbound datagrams the transport refused (socket backpressure).
    send_drops,
    /// Event-loop wakeups: `epoll_wait` returns on the readiness
    /// backend, loop iterations on the busy-poll backend. The ratio of
    /// datagrams to wakeups shows how much work each wakeup amortizes.
    wakeups,
    /// Receive syscalls issued (`recvmmsg` calls on the epoll backend
    /// — including the trailing empty one that observes `EAGAIN` — or
    /// `recv` calls on the busy-poll backend).
    syscalls_recv,
    /// Send syscalls issued (`sendmmsg` or `send` calls, as above).
    syscalls_send,
    /// Kernel messages this shard's sockets accepted: on the epoll
    /// backend each is one datagram or one train of them (a run of
    /// equal-length datagrams sent as one `UDP_SEGMENT` message), so
    /// `datagrams_sent ÷ messages_sent` is the mean train length; on
    /// the busy-poll backend each is one datagram. The in-memory
    /// [`ShardSet`](crate::ShardSet) has no kernel and leaves it 0.
    messages_sent,
    /// Kernel messages read off this shard's sockets: one datagram or
    /// (epoll backend, `UDP_GRO`) one train, as above.
    messages_received,
    /// Trains the kernel refused to segment (no `UDP_SEGMENT`, or a
    /// socket or path that cannot carry one). Their datagrams went out
    /// one by one instead; nothing was dropped. Moves once per refused
    /// length, then the sender stops forming such runs.
    segmentation_refused,
}

impl ShardStats {
    /// Adds one to `counter` as its only writer.
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        Self::bump_by(counter, 1);
    }

    /// Adds `n` to `counter` as its only writer: load, add, store — no
    /// locked instruction. Counters are monotonic and independently
    /// read, so no ordering beyond whole values is needed. A debug
    /// build stores through `compare_exchange` to catch a second writer.
    #[inline]
    pub(crate) fn bump_by(counter: &AtomicU64, n: u64) {
        let old = counter.load(Ordering::Relaxed);
        let new = old.wrapping_add(n);
        if cfg!(debug_assertions) {
            let swapped = counter.compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed);
            debug_assert!(swapped.is_ok(), "second writer on a shard's counters");
        } else {
            counter.store(new, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_add_and_export() {
        let stats = ShardStats::default();
        ShardStats::bump(&stats.datagrams_received);
        ShardStats::bump(&stats.datagrams_received);
        ShardStats::bump(&stats.handoff_out);
        let mut total = stats.get();
        assert_eq!(total.datagrams_received, 2);
        assert_eq!(total.handoff_out, 1);
        total.add(&stats.get());
        assert_eq!(total.datagrams_received, 4);

        let mut snap = MetricsSnapshot::default();
        total.extend_snapshot("server.shard0", &mut snap);
        let got = snap
            .counters
            .iter()
            .find(|c| c.name == "server.shard0.datagrams_received")
            .expect("exported");
        assert_eq!(got.value, 4);
    }

    /// Two threads bumping one counter break the contract; the debug
    /// build's checked store notices within a few context switches.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "second writer")]
    fn a_second_writer_trips_the_debug_assertion() {
        let stats = ShardStats::default();
        let tripped = std::sync::atomic::AtomicBool::new(false);
        let hammer = || {
            while !tripped.load(Ordering::Relaxed) {
                let bump = || ShardStats::bump(&stats.wakeups);
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(bump)).is_err() {
                    tripped.store(true, Ordering::Relaxed);
                }
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(hammer);
            scope.spawn(hammer);
        });
        panic!("second writer caught");
    }
}
