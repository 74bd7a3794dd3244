//! What a session costs a shard in memory, now that the protocol
//! counters and the delay, gap and residency distributions belong to
//! the shard.
//!
//! A full-range histogram is 15 KB and an engine over five channels
//! records into eleven of them, so sessions that each owned a set held
//! 176 KB apiece, nearly all of it histogram buckets no server export
//! ever read. A shard now builds one set per channel count it hosts and
//! every engine it builds records into that; since the per-channel
//! share counters and the `(k, m)` matrix joined the set, a session
//! holds no metric at all. The buffers went the same way: frames and
//! reconstructions live in the shard's one pool, which its engines
//! borrow, and so do the scheduler choice and split planes a symbol is
//! drawn in and the slab its partial symbols and their shares park in, so a
//! session is its pool-less engine and reassembly table, under 2 KB
//! after traffic (1.75 KB here, where a thousand sessions divide the
//! shards' own state; 1.53 KB on the benchmark's 10 000-session
//! `mem_fleet`), and the pool holds what one symbol has in flight, not
//! what every session once had.
//! Each direction's reassembly state is one open-addressed table of
//! 16-byte slots, where two hash maps with headroom against their own
//! tombstones held 0.8 KB a session more. A session that sends nothing
//! back, like these, builds no B→A direction at all (no table A, no
//! second scheduler, no feedback state), and the blocks it allocates at
//! first use reserve what that use needs; before both it held 1.0 KB
//! more here.
//! The sessions of a shard sit in a slab in creation order (chunks of 64
//! slots, so it holds what it uses), found through a connection-ID →
//! position map, so a sparse ID costs what a dense one does.
//!
//! A global allocator counting each thread's live bytes gives the
//! footprint; `Arc::strong_count` shows the sharing itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{Engine, SessionReport, SourceMode, Workload};
use mcss_remicss::metrics::ChannelMetrics;
use mcss_remicss::wire::{put_cid_prefix, ControlFrame};
use mcss_server::{ServerConfig, ServerError, ShardSet};
use rand::rngs::StdRng;
use rand::SeedableRng as _;

struct LiveBytesAllocator;

thread_local! {
    /// Bytes this thread allocated and has not freed (tests run on a
    /// thread each, and a `ShardSet` is driven from one).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn account(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for LiveBytesAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LiveBytesAllocator = LiveBytesAllocator;

const SESSIONS: u32 = 1_000;
const CHANNELS: usize = 5;
const SYMBOL_BYTES: usize = 64;
const WARMUP_SYMBOLS_PER_SESSION: u32 = 8;
/// `(κ, μ) = (2, 3)`: three shares a symbol, one of them parked.
const SHARES_PER_SYMBOL: usize = 3;
/// Measured 1 559 B (+ 25 %); a session that kept its own CPU clocks
/// and receive meters held 1.69 KB, one that kept its own copy of its
/// channels' backlogs 1.75 KB, one that kept its own slab of
/// partial symbols and insertion ring 1.9 KB, one that kept its
/// own scheduler choice and split planes 2.2 KB, one beside shards that kept
/// cross-shard handoff queues (0.6 KB a session here) 2.8 KB, one that
/// kept its own protocol counters 3.4 KB, one that built the B→A
/// direction whether or not its traffic used it 4.4 KB, one with two
/// hash maps per direction 5.1 KB, one stored inline in a hash table's
/// buckets 6.8 KB, one that owned its buffers 8.5 KB, one that owned its
/// histograms too 176 KB.
const BUDGET_BYTES_PER_SESSION: i64 = 1_949;

/// Buffers the shards' pools served warm and had to create, in all.
fn pool_hits_and_misses(set: &ShardSet) -> (u64, u64) {
    let pools = (0..set.num_shards()).map(|i| set.shard(i).pool());
    pools.fold((0, 0), |(hits, misses), pool| {
        (hits + pool.hits(), misses + pool.misses())
    })
}

fn protocol() -> Arc<ProtocolConfig> {
    Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(SYMBOL_BYTES),
    )
}

#[test]
fn a_fleet_session_holds_kilobytes_and_shares_its_shards_histograms() {
    let baseline = live_bytes();

    let config = protocol();
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    for cid in 0..SESSIONS {
        set.add_session(
            cid,
            Arc::clone(&config),
            CHANNELS,
            SourceMode::External,
            u64::from(cid),
        )
        .unwrap();
        set.start(SimTime::ZERO, cid);
    }

    // Lossless warm-up: every pool, table and queue reaches the size it
    // keeps.
    let payload = [0x5au8; SYMBOL_BYTES];
    let mut now = SimTime::ZERO;
    let mut symbols = 0..;
    let mut run = |set: &mut ShardSet, count: u32| {
        for i in symbols.by_ref().take(count as usize) {
            now += SimTime::from_micros(20);
            let cid = i % SESSIONS;
            let owner = set.shard_of(cid);
            set.offer_symbol(now, cid, &payload);
            while let Some(datagram) = set.shard_mut(owner).pop_outbound() {
                assert_eq!(datagram.cid, cid);
                set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, owner);
                set.shard_mut(owner).recycle_outbound(datagram.bytes);
            }
            // The symbol comes out of the session it went into: every
            // position of the slab leads to its own slot.
            let mut delivered = 0;
            while let Some((_, symbol)) = set.shard_mut(owner).pop_delivered(cid) {
                set.shard_mut(owner).recycle_delivered(cid, symbol);
                delivered += 1;
            }
            assert_eq!(delivered, 1, "cid {cid}");
            set.poll(now);
        }
    };
    run(&mut set, SESSIONS * WARMUP_SYMBOLS_PER_SESSION);
    let delivered = set.totals().symbols_delivered;
    assert_eq!(
        delivered,
        u64::from(SESSIONS * WARMUP_SYMBOLS_PER_SESSION),
        "the warm-up is lossless"
    );

    // The whole set — shards, sessions, the shards' histograms — divided
    // among the sessions.
    let live = live_bytes() - baseline;
    let per_session = live / i64::from(SESSIONS);
    println!("{per_session} B live per session ({live} B in all)");
    assert!(
        per_session <= BUDGET_BYTES_PER_SESSION,
        "{per_session} B live per session ({live} B in all)"
    );

    // The buffers are the shards', not the sessions': at rest a shard
    // holds what one symbol had in flight at once (its three frames;
    // the reconstruction reuses the first of them to come back),
    // however many sessions took turns with them.
    for i in 0..set.num_shards() {
        let idle = set.shard(i).pool().idle();
        assert!(idle <= SHARES_PER_SYMBOL, "shard {i}: {idle} idle");
    }
    // One more symbol per session, all from warm pools and a warm slab:
    // three frames and one buffer to reconstruct into taken from the
    // pool, and the one share parked below the threshold held in the
    // slab's one share buffer. The second share completes the symbol
    // and is read where its datagram lies, so the slab never holds a
    // second buffer (it did when the completing share was parked); the
    // third, stale, takes nothing.
    let (hits, misses) = pool_hits_and_misses(&set);
    run(&mut set, SESSIONS);
    let per_symbol = SHARES_PER_SYMBOL as u64 + 1;
    assert_eq!(
        pool_hits_and_misses(&set),
        (hits + u64::from(SESSIONS) * per_symbol, misses)
    );
    for i in 0..set.num_shards() {
        let buffers = set.shard(i).partials().buffers();
        assert_eq!(buffers, 1, "shard {i}: the completing share was parked");
    }

    // One set of metrics per shard, held by the shard and by each of
    // its engines: the second session onwards built none. It accounts
    // for every share and every draw of the shard's sessions.
    let window = SimTime::from_secs(1);
    for i in 0..set.num_shards() {
        let shard = set.shard(i);
        let [metrics] = shard.metrics() else {
            panic!(
                "shard {i} hosts one channel count, holds {} sets",
                shard.metrics().len()
            );
        };
        assert_eq!(metrics.channel_count(), CHANNELS);
        assert_eq!(
            Arc::strong_count(metrics),
            shard.session_count() + 1,
            "shard {i}"
        );
        let stats = set.stats(i);
        let channels = metrics.channels();
        let sum = |count: fn(&ChannelMetrics) -> u64| channels.iter().map(count).sum::<u64>();
        assert_eq!(
            sum(|ch| ch.shares_sent.get()),
            stats.shares_sent,
            "shard {i}"
        );
        assert_eq!(sum(|ch| ch.shares_dropped.get()), 0, "shard {i}");
        let delays = sum(|ch| ch.one_way_delay.count());
        assert_eq!(sum(|ch| ch.shares_received.get()), delays, "shard {i}");
        assert_eq!(
            delays, stats.datagrams_received,
            "shard {i} records every share it was delivered"
        );
        let reports: Vec<_> = shard.cids().map(|cid| shard.report(cid, window)).collect();
        let sent: u64 = reports.iter().map(|r| r.sent_symbols).sum();
        let km: u64 = (0..=CHANNELS)
            .flat_map(|k| (0..=CHANNELS).map(move |m| (k, m)))
            .map(|(k, m)| metrics.km_count(k, m))
            .sum();
        assert_eq!(km, sent, "shard {i}: a draw per symbol sent");
        assert_eq!(metrics.choices(), sent, "shard {i}");
        let total = |mean: fn(&SessionReport) -> f64| -> u64 {
            let exact = |r: &SessionReport| (mean(r) * r.sent_symbols as f64).round() as u64;
            reports.iter().map(exact).sum()
        };
        assert_eq!(metrics.sum_k(), total(|r| r.mean_k), "shard {i}");
        assert_eq!(metrics.sum_m(), total(|r| r.mean_m), "shard {i}");
    }
}

/// Hosts one session per connection ID on two shards, puts a symbol
/// through each, and returns the set with the bytes it holds live.
fn host(cids: [u32; 3]) -> (ShardSet, i64) {
    let baseline = live_bytes();
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    for cid in cids {
        set.add_session(cid, protocol(), CHANNELS, SourceMode::External, 9)
            .unwrap();
        set.start(SimTime::ZERO, cid);
    }
    let now = SimTime::from_millis(1);
    for cid in cids {
        let owner = set.shard_of(cid);
        let payload = [cid as u8; SYMBOL_BYTES];
        set.offer_symbol(now, cid, &payload);
        while let Some(datagram) = set.shard_mut(owner).pop_outbound() {
            assert_eq!(datagram.cid, cid);
            set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, owner);
            set.shard_mut(owner).recycle_outbound(datagram.bytes);
        }
        let (_, symbol) = set.shard_mut(owner).pop_delivered(cid).expect("delivered");
        assert_eq!(symbol, payload, "cid {cid}");
        set.shard_mut(owner).recycle_delivered(cid, symbol);
        assert_eq!(set.shard_mut(owner).pop_delivered(cid), None);
    }
    let live = live_bytes() - baseline;
    (set, live)
}

/// Connection IDs are looked up, not indexed: IDs scattered over the
/// whole `u32` range register, route and report like consecutive ones
/// and hold no more memory.
#[test]
fn sparse_connection_ids_cost_what_dense_ones_do() {
    // Two on shard 0 and one on shard 1, both ways.
    let sparse_cids = [0, 7, u32::MAX - 1];
    let (dense, dense_bytes) = host([0, 1, 2]);
    let (mut sparse, sparse_bytes) = host(sparse_cids);
    assert!(
        sparse_bytes <= dense_bytes,
        "sparse {sparse_bytes} B, dense {dense_bytes} B"
    );
    drop(dense);

    for cid in sparse_cids {
        let report = sparse.report(cid, SimTime::from_millis(1));
        assert_eq!(
            (report.offered_symbols, report.delivered_symbols),
            (1, 1),
            "cid {cid}"
        );
    }
    // Each shard lists its sessions once, in the order registered.
    let listed = |set: &ShardSet, shard: usize| set.shard(shard).cids().collect::<Vec<_>>();
    assert_eq!(listed(&sparse, 0), [0, u32::MAX - 1]);
    assert_eq!(listed(&sparse, 1), [7]);

    // A taken ID is refused and changes nothing.
    let taken = sparse.add_session(7, protocol(), CHANNELS, SourceMode::External, 1);
    assert!(matches!(taken, Err(ServerError::DuplicateCid(7))));
    assert_eq!(sparse.session_count(), 3);
    assert_eq!(listed(&sparse, 1), [7]);

    // A datagram for an ID nobody registered is counted and dropped,
    // on the shard that would own it.
    sparse.offer_symbol(SimTime::from_millis(2), 7, &[1; SYMBOL_BYTES]);
    let mut stray = sparse.shard_mut(1).pop_outbound().expect("a share").bytes;
    stray[3..7].copy_from_slice(&9u32.to_be_bytes());
    let before = sparse.totals();
    sparse.deliver_datagram(SimTime::from_millis(2), 0, Endpoint::B, &stray, 0);
    let after = sparse.totals();
    assert_eq!(after.dropped_unknown_cid, before.dropped_unknown_cid + 1);
    assert_eq!(after.handoff_out, before.handoff_out + 1);
    assert_eq!(after.symbols_delivered, before.symbols_delivered);
}

/// A constant-rate session sends nothing back, so it holds no state for
/// frames arriving at A: a valid share and a control frame routed there
/// are counted and dropped, parking nothing, taking no buffer and
/// allocating nothing.
#[test]
fn frames_at_a_of_a_one_way_session_are_dropped_and_counted() {
    let mut set = ShardSet::new(&ServerConfig::with_shards(1));
    let cbr = Workload::cbr(1_000.0, SimTime::from_secs(1));
    set.add_session(3, protocol(), CHANNELS, SourceMode::Paced(cbr), 1)
        .unwrap();
    set.start(SimTime::ZERO, 3);
    set.poll(SimTime::ZERO);
    let shard = set.shard_mut(0);
    let share = shard.pop_outbound().expect("the first symbol's shares");
    let mut control = Vec::new();
    put_cid_prefix(&mut control, 3);
    ControlFrame::new(1, 1, 1).encode_into(&mut control);

    let pool = |set: &ShardSet| {
        let pool = set.shard(0).pool();
        (pool.hits(), pool.misses(), pool.idle())
    };
    let route = |set: &mut ShardSet, frame: &[u8]| {
        let shard = set.shard_mut(0);
        assert_eq!(
            shard.route_datagram(SimTime::ZERO, 0, Endpoint::A, frame),
            None
        );
    };
    let before = (set.totals(), set.shard(0).timers_pending(), pool(&set));
    let baseline = live_bytes();
    route(&mut set, &share.bytes);
    route(&mut set, &control);
    assert_eq!(live_bytes(), baseline, "a dropped frame allocated");
    let after = set.totals();
    assert_eq!(after.datagrams_received, before.0.datagrams_received + 2);
    let dropped = |t: &mcss_server::ShardStatsSnapshot| {
        t.dropped_bad_frame + t.dropped_malformed + t.dropped_unknown_cid
    };
    assert_eq!(dropped(&after), dropped(&before.0), "the frames were valid");
    assert_eq!(after.symbols_delivered, before.0.symbols_delivered);
    // No sweep timer armed for a parked share, no buffer taken.
    assert_eq!(set.shard(0).timers_pending(), before.1);
    assert_eq!(pool(&set), before.2);
    let report = set.report(3, SimTime::from_secs(1));
    assert_eq!(report.misdirected_frames, 2);
    assert_eq!(report.wire_errors, 0);
    assert_eq!(report.mean_rtt, None);
    set.shard_mut(0).recycle_outbound(share.bytes);
}

/// A shard holds a set per channel count, not per session, and a
/// rejected session leaves none behind.
#[test]
fn a_shard_holds_one_set_per_channel_count() {
    let mut set = ShardSet::new(&ServerConfig::with_shards(1));
    for (cid, channels) in [(0u32, 3usize), (1, 5), (2, 3), (3, 5), (4, 4)] {
        set.add_session(cid, protocol(), channels, SourceMode::External, 1)
            .unwrap();
    }
    // (2, 3) does not fit two channels.
    assert!(set
        .add_session(5, protocol(), 2, SourceMode::External, 1)
        .is_err());
    let hosted: Vec<(usize, usize)> = set
        .shard(0)
        .metrics()
        .iter()
        .map(|h| (h.channel_count(), Arc::strong_count(h)))
        .collect();
    assert_eq!(hosted, [(3, 3), (5, 3), (4, 2)]);
}

/// `Engine::new` is unchanged: a standalone engine is a host of one,
/// owns its metrics and reports them under the `remicss.*` names.
#[test]
fn a_standalone_engine_reports_its_own_distributions() {
    let mut engine = Engine::new(protocol(), CHANNELS, SourceMode::External).unwrap();
    assert_eq!(Arc::strong_count(engine.metrics()), 1);
    let mut rng = StdRng::seed_from_u64(3);
    engine.handle(SimTime::ZERO, Event::Started, &mut rng);
    let mut used = [false; CHANNELS];
    for symbol in 1..=4u64 {
        let now = SimTime::from_millis(symbol);
        let payload = [symbol as u8; SYMBOL_BYTES];
        engine.handle(now, Event::SymbolReady { payload: &payload }, &mut rng);
        let mut shares = Vec::new();
        while let Some(action) = engine.poll_action() {
            match action {
                Action::SendShare { channel, frame, .. } => {
                    engine.share_send_ok(channel);
                    shares.push((channel, frame));
                }
                Action::DeliverSymbol { payload, .. } => engine.recycle(payload),
                Action::SetTimer { .. } | Action::SendControl { .. } => {}
            }
        }
        // Three shares a symbol, delivered a millisecond later.
        for (channel, frame) in shares {
            used[channel] = true;
            let arrival = now + SimTime::from_millis(1);
            engine
                .handle_frame(arrival, channel, Endpoint::B, &frame, &mut rng)
                .unwrap();
            engine.recycle(frame);
        }
    }
    let snapshot = engine.metrics_snapshot();
    for (channel, used) in used.into_iter().enumerate() {
        let name = format!("remicss.delay.ch{channel}");
        let delay = snapshot.histograms.iter().find(|h| h.name == name);
        assert_eq!(delay.is_some(), used, "{name}");
        if let Some(delay) = delay {
            let metrics = engine.metrics().channel(channel);
            assert_eq!(delay.count, metrics.shares_received.get(), "{name}");
            assert_eq!((delay.min, delay.max), (1_000_000, 1_000_000), "{name}");
            assert_eq!(
                metrics.delay_sum_nanos.get(),
                1_000_000 * metrics.shares_received.get(),
                "mean delay of channel {channel}"
            );
        }
    }
    assert!(snapshot
        .histograms
        .iter()
        .any(|h| h.name == "remicss.reassembly.residency" && h.count == 4));
}
