//! Per-shard operational counters.
//!
//! One [`Counter`] per demux, handoff and I/O event a shard counts;
//! [`ShardStatsSnapshot::extend_snapshot`] bridges them into a
//! [`MetricsSnapshot`] fragment.
//!
//! They are atomics so that *readers* on other threads (a benchmark's
//! sampler, a metrics scrape) see whole values, not so that several
//! threads can write: a shard's counters have one writer, its own
//! thread, and are bumped with [`Counter::add_single_writer`], a plain
//! load, add and store.

use mcss_obs::{Counter, CounterSnapshot, MetricsSnapshot};

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
            $($(#[doc = $doc])+ pub $field: Counter,)+
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
                    $($field: self.$field.get(),)+
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
    /// Frames read here but owned by another shard, routed to it.
    handoff_out,
    /// Frames processed here that another shard read.
    handoff_in,
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
    /// Share frames discarded by injected loss
    /// ([`UdpServer::set_loss`](crate::UdpServer::set_loss)) after their
    /// engine counted them sent.
    injected_drops,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_add_and_export() {
        let stats = ShardStats::default();
        stats.datagrams_received.add_single_writer(2);
        stats.handoff_out.add_single_writer(1);
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
        use std::sync::atomic::{AtomicBool, Ordering};
        let stats = ShardStats::default();
        let tripped = AtomicBool::new(false);
        let hammer = || {
            while !tripped.load(Ordering::Relaxed) {
                let bump = || stats.wakeups.add_single_writer(1);
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
