//! The single-writer telemetry contract, from both sides.
//!
//! A shard's counters ([`ShardStats`](mcss_server::ShardStats)) and the
//! distributions its sessions record into (`SessionHistograms`) are
//! written with plain loads and stores by one thread at a time — the one
//! holding `&mut Shard` — and read by anyone. The first test is the
//! reader's half: polling from another thread while the owner works, it
//! sees whole values that never go down, and every sample is there at
//! the end. The second is the writer's half: two threads recording into
//! one histogram break the contract, and a debug build says so.
//!
//! CI runs this file in debug and in `--release`: the plain store and
//! the checked one are different code.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::metrics::SessionHistograms;
use mcss_server::{ServerConfig, ShardSet};

const CHANNELS: usize = 5;
const SYMBOL_BYTES: usize = 64;
const SYMBOLS: u64 = 20_000;
/// `(κ, μ) = (2, 3)`.
const SHARES_PER_SYMBOL: u64 = 3;

/// Samples recorded in `histograms`: delays over all channels, and
/// residencies.
fn recorded(histograms: &SessionHistograms) -> (u64, u64) {
    let delays = histograms.channels().iter();
    (
        delays.map(|ch| ch.one_way_delay.count()).sum(),
        histograms.residency.count(),
    )
}

#[test]
fn a_reader_sees_monotone_values_and_every_sample_at_the_end() {
    let protocol = ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_symbol_bytes(SYMBOL_BYTES);
    let mut set = ShardSet::new(&ServerConfig::with_shards(1));
    set.add_session(0, protocol, CHANNELS, SourceMode::External, 5)
        .unwrap();
    set.start(SimTime::ZERO, 0);
    let stats = Arc::clone(set.shard(0).stats());
    let histograms = Arc::clone(&set.shard(0).histograms()[0]);

    let done = AtomicBool::new(false);
    let polls = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut last = (stats.get(), recorded(&histograms));
            while !done.load(Ordering::Acquire) {
                let now = (stats.get(), recorded(&histograms));
                let (was, is) = (&last.0, &now.0);
                assert!(is.symbols_delivered <= SYMBOLS, "{is:?}");
                assert!(is.symbols_delivered >= was.symbols_delivered);
                assert!(is.shares_sent >= was.shares_sent);
                assert!(is.datagrams_received >= was.datagrams_received);
                assert!(now.1 .0 >= last.1 .0 && now.1 .1 >= last.1 .1);
                last = now;
                polls.fetch_add(1, Ordering::Release);
            }
        });

        let payload = [0xA5u8; SYMBOL_BYTES];
        for symbol in 1..=SYMBOLS {
            if symbol.is_multiple_of(SYMBOLS / 4) {
                // The reader gets a look in mid-run however the two
                // threads are scheduled (unless an assertion ended it).
                let seen = polls.load(Ordering::Acquire);
                while polls.load(Ordering::Acquire) == seen && !reader.is_finished() {
                    std::thread::yield_now();
                }
            }
            let now = SimTime::from_micros(symbol * 20);
            set.offer_symbol(now, 0, &payload);
            while let Some(datagram) = set.shard_mut(0).pop_outbound() {
                set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, 0);
                set.shard_mut(0).recycle_outbound(datagram.bytes);
            }
            while let Some((_, symbol)) = set.shard_mut(0).pop_delivered(0) {
                set.shard_mut(0).recycle_delivered(0, symbol);
            }
        }
        done.store(true, Ordering::Release);
    });

    let totals = stats.get();
    assert_eq!(totals.symbols_delivered, SYMBOLS);
    assert_eq!(totals.shares_sent, SYMBOLS * SHARES_PER_SYMBOL);
    assert_eq!(totals.datagrams_received, SYMBOLS * SHARES_PER_SYMBOL);
    if cfg!(feature = "telemetry") {
        assert_eq!(
            recorded(&histograms),
            (SYMBOLS * SHARES_PER_SYMBOL, SYMBOLS)
        );
    }
}

/// Two threads recording into one set at once lose samples in release;
/// in debug the checked store of whichever loses a race panics, within
/// a few context switches of starting.
#[cfg(all(debug_assertions, feature = "telemetry"))]
#[test]
#[should_panic(expected = "second writer")]
fn a_second_writer_trips_the_debug_assertion() {
    let histograms = SessionHistograms::new(1);
    let tripped = AtomicBool::new(false);
    let hammer = || {
        while !tripped.load(Ordering::Relaxed) {
            let record = || histograms.residency.record_single_writer(7);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(record)).is_err() {
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
