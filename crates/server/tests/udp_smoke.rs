//! End-to-end smoke of the threaded [`UdpServer`]: real loopback
//! sockets, one thread per shard with its own socket pairs. Runs the
//! same small multi-session workload under **every** I/O backend the
//! host supports (busypoll everywhere, epoll on Linux) and verifies
//! that symbols move, that nothing on the wire misroutes (no
//! unknown-cid or malformed drops on a clean loopback, and no frame
//! read by a shard that does not own it), and that the
//! metrics snapshot exports the per-shard and total counter families —
//! including the wakeup/syscall amortization counters, the message
//! counters that say whether trains form (epoll: fewer kernel messages
//! than datagrams; busy-poll: one each) and the shards' buffer pools —
//! and the per-channel delay distributions its shards recorded. A fleet
//! whose sources have stopped must hold no timer at all. On epoll, idle
//! shards sleep to the run's deadline instead of spinning, and sources
//! faster than the loop's millisecond timer grid keep their rate.

use std::sync::Arc;
use std::time::Duration;

use mcss_base::SimTime;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::Workload;
use mcss_server::{IoBackend, IoMode, ServerConfig, ShardStatsSnapshot, UdpServer};

fn run_smoke(io: IoMode, expect: IoBackend) {
    let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_symbol_bytes(64));
    let mut config = ServerConfig::with_shards(2);
    config.io = io;
    let mut server = UdpServer::new(config, protocol, 5).expect("loopback sockets bind");
    assert_eq!(server.backend(), expect);
    const SESSIONS: u32 = 16;
    for cid in 0..SESSIONS {
        // Duration far beyond the run window so sources never idle.
        let workload = Workload::cbr(50.0, SimTime::from_secs(30));
        server
            .add_session(cid, workload, 1 + u64::from(cid))
            .unwrap();
    }
    assert_eq!(server.session_count(), SESSIONS as usize);

    let summary = server.run_for(Duration::from_millis(400)).expect("run");

    assert_eq!(summary.sessions, SESSIONS as usize);
    assert!(summary.sent_symbols > 0, "sources produced nothing");
    assert!(
        summary.delivered_symbols > 0,
        "no symbol survived the loopback round trip: {summary:?}"
    );
    assert!(summary.shares_sent >= summary.sent_symbols);
    assert!(summary.datagrams_received > 0);

    let totals = server.shards().totals();
    // A clean loopback carries only frames the server itself prefixed.
    assert_eq!(totals.dropped_unknown_cid, 0, "{totals:?}");
    assert_eq!(totals.dropped_malformed, 0, "{totals:?}");
    assert_eq!(totals.dropped_legacy, 0, "{totals:?}");
    assert_no_handoff(&totals);
    // Buffers never leak across pools: full return rings would count.
    assert_eq!(totals.returns_migrated, 0, "{totals:?}");
    // Every backend accounts its event loop.
    assert!(totals.wakeups > 0, "{totals:?}");
    assert!(totals.syscalls_recv > 0, "{totals:?}");
    assert!(totals.syscalls_send > 0, "{totals:?}");
    // A kernel message is one datagram or one train of them; only the
    // epoll backend forms trains.
    assert!(totals.messages_sent > 0, "{totals:?}");
    assert!(totals.messages_received > 0, "{totals:?}");
    assert!(totals.messages_sent <= totals.datagrams_sent, "{totals:?}");
    assert!(
        totals.messages_received <= totals.datagrams_received,
        "{totals:?}"
    );
    if expect == IoBackend::Busypoll {
        assert_eq!(totals.messages_sent, totals.datagrams_sent, "{totals:?}");
        assert_eq!(
            totals.messages_received, totals.datagrams_received,
            "{totals:?}"
        );
        assert_eq!(totals.segmentation_refused, 0, "{totals:?}");
    }

    // Per-session reports are complete and sorted.
    let reports = server.session_reports(SimTime::from_millis(400));
    assert_eq!(reports.len(), SESSIONS as usize);
    assert!(reports.windows(2).all(|w| w[0].0 < w[1].0));

    // The snapshot endpoint exposes both shards and the totals.
    let snapshot = server.metrics_snapshot();
    for name in [
        "server.shard0.datagrams_received",
        "server.shard1.datagrams_received",
        "server.total.datagrams_received",
        "server.total.handoff_in",
        "server.shard0.wakeups",
        "server.shard1.wakeups",
        "server.total.syscalls_recv",
        "server.total.syscalls_send",
        "server.shard0.messages_sent",
        "server.shard1.messages_received",
        "server.total.messages_sent",
        "server.total.messages_received",
        "server.total.segmentation_refused",
        "server.shard0.pool_misses",
        "server.shard1.pool_misses",
        "server.total.pool_misses",
    ] {
        assert!(
            snapshot.counters.iter().any(|c| c.name == name),
            "snapshot missing {name}"
        );
    }
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|g| g.name == "server.total.sessions" && g.value == i64::from(SESSIONS)),
        "snapshot missing session gauge"
    );
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|g| g.name == "server.total.datagrams_per_syscall"),
        "snapshot missing amortization gauge"
    );
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|g| g.name == "server.total.datagrams_per_message" && g.value >= 1),
        "snapshot missing train-length gauge"
    );
    // The sources still tick, so their timers are on the wheels.
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|g| g.name == "server.total.timers_pending" && g.value >= i64::from(SESSIONS)),
        "snapshot missing timer-depth gauge"
    );
    let text = snapshot.to_prometheus();
    assert!(
        text.contains("server_total_datagrams_received"),
        "prometheus text missing server totals:\n{text}"
    );
    for name in [
        "server_total_messages_sent ",
        "server_total_messages_received ",
        "server_total_segmentation_refused ",
        "server_total_datagrams_per_message ",
    ] {
        assert!(
            text.contains(name),
            "prometheus text missing {name}:\n{text}"
        );
    }
    // The shards' pools are the server's buffer memory: after the run
    // buffers have come back to each, the largest at least a whole frame
    // (demux prefix, share header, 64-byte share).
    let gauge = |name: &str| snapshot.gauges.iter().find(|g| g.name == name);
    for scope in ["shard0", "shard1", "total"] {
        for name in ["pool_idle", "pool_misses", "pool_max_capacity"] {
            assert!(
                text.contains(&format!("server_{scope}_{name} ")),
                "prometheus text missing server.{scope}.{name}:\n{text}"
            );
        }
        let idle = gauge(&format!("server.{scope}.pool_idle")).unwrap().value;
        let largest = gauge(&format!("server.{scope}.pool_max_capacity")).unwrap();
        assert!(idle > 0, "{scope}: no buffer came back");
        assert!(largest.value >= 7 + 24 + 64, "{scope}: {largest:?}");
    }

    // Per-channel delay, from the shards' histograms: the total is the
    // shards merged, and every share an engine was handed is in it (the
    // loopback is clean, carries no control frames and hands nothing
    // off, so that is every datagram read).
    if !cfg!(feature = "telemetry") {
        assert!(snapshot.histograms.is_empty());
        return;
    }
    let count = |name: String| {
        let found = snapshot.histograms.iter().find(|h| h.name == name);
        found.map_or(0, |h| h.count)
    };
    let mut recorded = 0;
    for channel in 0..5 {
        let total = count(format!("server.total.delay.ch{channel}"));
        // Three shares a symbol over idle channels: the scheduler may
        // leave the last two unused, and an empty histogram is absent.
        if total == 0 {
            assert!(channel >= 3, "no delay recorded on channel {channel}");
            continue;
        }
        let shards: u64 = (0..2)
            .map(|i| count(format!("server.shard{i}.delay.ch{channel}")))
            .sum();
        assert_eq!(total, shards, "channel {channel}");
        assert!(
            text.contains(&format!("server_total_delay_ch{channel}_count {total}\n")),
            "prometheus text missing channel {channel}'s delay:\n{text}"
        );
        recorded += total;
    }
    assert_eq!(recorded, totals.datagrams_received, "{totals:?}");
    assert_eq!(
        count("server.total.reassembly_residency".to_string()),
        totals.symbols_delivered,
        "{totals:?}"
    );
}

/// Each shard owns a connected socket pair per channel, so it reads only
/// its own sessions' frames: nothing crosses to another shard.
fn assert_no_handoff(totals: &ShardStatsSnapshot) {
    assert_eq!(
        (
            totals.handoff_in,
            totals.handoff_out,
            totals.handoff_rejected
        ),
        (0, 0, 0),
        "{totals:?}"
    );
}

#[test]
fn loopback_server_moves_symbols_and_exports_metrics_busypoll() {
    run_smoke(IoMode::Busypoll, IoBackend::Busypoll);
}

#[cfg(target_os = "linux")]
#[test]
fn loopback_server_moves_symbols_and_exports_metrics_epoll() {
    run_smoke(IoMode::Epoll, IoBackend::Epoll);
}

/// Sweep timers are armed on demand: once the sources have stopped and
/// the last partial symbol has expired, nothing is left on any wheel,
/// so an idle fleet costs its shards no wakeups.
#[test]
fn idle_fleet_holds_no_timers() {
    let protocol = Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(64)
            .with_reassembly_timeout(SimTime::from_millis(40)),
    );
    let mut server =
        UdpServer::new(ServerConfig::with_shards(2), protocol, 5).expect("sockets bind");
    for cid in 0..16u32 {
        let workload = Workload::cbr(200.0, SimTime::from_millis(50));
        server
            .add_session(cid, workload, 1 + u64::from(cid))
            .unwrap();
    }
    // The last symbol's first share arrives by about 50 ms and the sweep
    // timer it armed fires by 100 ms, finding nothing to arm for.
    let summary = server.run_for(Duration::from_millis(400)).expect("run");
    assert!(summary.delivered_symbols > 0, "{summary:?}");
    let totals = server.shards().totals();
    assert!(totals.timers_fired > 0, "{totals:?}");
    let snapshot = server.metrics_snapshot();
    for name in [
        "server.shard0.timers_pending",
        "server.shard1.timers_pending",
        "server.total.timers_pending",
    ] {
        let gauge = snapshot.gauges.iter().find(|g| g.name == name);
        assert_eq!(gauge.map(|g| g.value), Some(0), "{name}");
    }
}

/// The epoll backend must amortize syscalls: far fewer wakeups than
/// the busy-poll loop for the same workload, clearly fewer recv
/// syscalls than datagrams received (recvmmsg batching at work), and
/// fewer kernel messages than datagrams in both directions (trains at
/// work) — unless this kernel cannot segment or cannot deliver trains
/// whole, which is reported as `[skip-gso]` / `[skip-gro]`, not passed
/// over in silence: CI fails on either.
#[cfg(target_os = "linux")]
#[test]
fn epoll_backend_amortizes_wakeups_and_syscalls() {
    let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_symbol_bytes(64));
    let mut config = ServerConfig::with_shards(2);
    config.io = IoMode::Epoll;
    let mut server = UdpServer::new(config, protocol, 5).expect("sockets bind");
    for cid in 0..64u32 {
        let workload = Workload::cbr(100.0, SimTime::from_secs(30));
        server
            .add_session(cid, workload, 1 + u64::from(cid))
            .unwrap();
    }
    let summary = server.run_for(Duration::from_millis(400)).expect("run");
    assert!(summary.delivered_symbols > 0, "{summary:?}");
    let totals = server.shards().totals();
    assert_no_handoff(&totals);
    // The busy-poll loop would record one recv syscall per socket per
    // iteration (~10 sockets × thousands of iterations); readiness +
    // batching must come in far below one syscall per datagram pair.
    assert!(
        totals.syscalls_recv < totals.datagrams_received * 2,
        "recvmmsg batching missing: {totals:?}"
    );
    // Sleeping between timer deadlines bounds wakeups by wall-clock /
    // timer cadence, not by a spin rate.
    assert!(
        totals.wakeups < 100_000,
        "epoll loop appears to be spinning: {totals:?}"
    );
    // 64 sessions ticking every 10 ms put several equal-length shares a
    // pass on each channel's queue.
    if totals.segmentation_refused == 0 {
        assert!(
            totals.messages_sent < totals.datagrams_sent,
            "no train formed: {totals:?}"
        );
    } else {
        println!("[skip-gso] this kernel refused to segment: {totals:?}");
    }
    let probe = std::net::UdpSocket::bind("127.0.0.1:0").expect("probe socket");
    if totals.segmentation_refused == 0 && mcss_server::sys::enable_udp_gro(&probe) {
        assert!(
            totals.messages_received < totals.datagrams_received,
            "no train arrived whole: {totals:?}"
        );
    } else {
        println!("[skip-gro] no trains sent, or this kernel has no UDP_GRO");
    }
}

/// An idle epoll shard sleeps its 25 ms waits to the end: the last wait
/// before the deadline rounds up, not down to a spin of
/// `epoll_wait(0)`. Two shards over 1 s need about 81 wakeups (40 waits
/// of 25 ms each, plus a few timers of the one slow session).
#[cfg(target_os = "linux")]
#[test]
fn idle_epoll_shards_do_not_spin_before_the_deadline() {
    let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_symbol_bytes(64));
    let mut config = ServerConfig::with_shards(2);
    config.io = IoMode::Epoll;
    let mut server = UdpServer::new(config, protocol, 5).expect("sockets bind");
    server
        .add_session(0, Workload::cbr(1.0, SimTime::from_secs(30)), 1)
        .unwrap();
    server.run_for(Duration::from_secs(1)).expect("run");
    let totals = server.shards().totals();
    assert!(totals.wakeups <= 100, "{totals:?}");
}

/// Timer passes run on the millisecond grid, but a source faster than
/// one tick a millisecond catches up between receive batches, so it
/// keeps its rate: 4 000 sym/s is four ticks a grid step. Held to one
/// tick a step, it would send a quarter of its schedule; a quiet host
/// reads above 0.998, and the bound leaves room for a shared host
/// stalling the run for tens of milliseconds.
#[cfg(target_os = "linux")]
#[test]
fn sources_faster_than_the_timer_grid_keep_their_rate() {
    const RATE: f64 = 4_000.0;
    const SESSIONS: u32 = 2;
    let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_symbol_bytes(64));
    let mut config = ServerConfig::with_shards(2);
    config.io = IoMode::Epoll;
    let mut server = UdpServer::new(config, protocol, 5).expect("sockets bind");
    for cid in 0..SESSIONS {
        let workload = Workload::cbr(RATE, SimTime::from_secs(30));
        server
            .add_session(cid, workload, 1 + u64::from(cid))
            .unwrap();
    }
    let summary = server.run_for(Duration::from_secs(1)).expect("run");
    let scheduled = RATE * f64::from(SESSIONS) * summary.elapsed.as_secs_f64();
    let sent = summary.sent_symbols as f64;
    assert!(
        sent >= 0.95 * scheduled,
        "sent {sent} of {scheduled:.0} scheduled: {summary:?}"
    );
    assert!(
        summary.delivered_symbols as f64 >= 0.99 * sent,
        "{summary:?}"
    );
}
