//! What timers cost a shard is set by what can expire, not by how many
//! sessions it holds: external-source sessions set no timer when they
//! start, and a lossless fleet fires a small fraction of a timer per
//! symbol where a sweep every quarter timeout per session fired more
//! than one.
//!
//! The fleet is 10 000 three-channel sessions on two shards. A session
//! is a few kilobytes (its engine, tables and pools; the delay
//! histograms are its shard's, see `session_footprint`), so the test
//! peaks near 70 MiB resident and runs in about 7 s unoptimized — it
//! held 1.1 GiB when every session owned seven histograms.

use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_server::{ServerConfig, ShardSet};

const SESSIONS: u32 = 10_000;
const SYMBOL_BYTES: usize = 64;
/// 60 000 symbols a second across the fleet, round robin: a session
/// sends one every sixth of a second.
const STEP: SimTime = SimTime::from_nanos(1_000_000_000 / 60_000);

/// Offers one symbol to `cid` and loops its shares straight back.
fn symbol(set: &mut ShardSet, now: SimTime, cid: u32, payload: &[u8]) {
    set.offer_symbol(now, cid, payload);
    let owner = set.shard_of(cid);
    while let Some(datagram) = set.shard_mut(owner).pop_outbound() {
        set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, owner);
        set.shard_mut(owner).recycle_outbound(datagram.bytes);
    }
    while let Some((_, symbol)) = set.shard_mut(owner).pop_delivered(cid) {
        set.shard_mut(owner).recycle_delivered(cid, symbol);
    }
    set.poll(now);
}

#[test]
fn lossless_fleet_fires_a_fraction_of_a_timer_per_symbol() {
    // The default 500 ms timeout: sweep grid every 125 ms.
    let config = Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(SYMBOL_BYTES),
    );
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    for cid in 0..SESSIONS {
        set.add_session(
            cid,
            Arc::clone(&config),
            3,
            SourceMode::External,
            u64::from(cid),
        )
        .unwrap();
        set.start(SimTime::ZERO, cid);
    }
    let pending = |set: &ShardSet| -> usize {
        (0..set.num_shards())
            .map(|i| set.shard(i).timers_pending())
            .sum()
    };
    assert_eq!(pending(&set), 0, "idle sessions hold no timers");

    let payload = [0x5au8; SYMBOL_BYTES];
    let mut now = SimTime::ZERO;
    let mut run = |set: &mut ShardSet, symbols: u32| {
        for i in 0..symbols {
            now += STEP;
            symbol(set, now, i % SESSIONS, &payload);
        }
    };
    // One second for every session's timer cycle to be under way...
    run(&mut set, 60_000);
    let warm = set.totals();
    assert!(
        pending(&set) <= SESSIONS as usize,
        "a timer a session at most"
    );
    // ...then two seconds measured. A session's first share of a symbol
    // sets its timer; it fires 500 to 625 ms later and finds nothing,
    // and the next symbol (within 167 ms) sets it again.
    run(&mut set, 120_000);
    let totals = set.totals();
    let delivered = totals.symbols_delivered - warm.symbols_delivered;
    let fired = totals.timers_fired - warm.timers_fired;
    assert_eq!(delivered, 120_000, "the loop is lossless");
    assert!(fired > 0, "no timer fired in two seconds");
    assert!(
        fired as f64 <= 0.35 * delivered as f64,
        "{fired} timers for {delivered} symbols"
    );
}
