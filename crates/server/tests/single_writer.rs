//! The single-writer telemetry contract, from both sides.
//!
//! A shard's counters ([`ShardStats`](mcss_server::ShardStats)) and the
//! protocol counters and distributions its sessions record into
//! (`HostMetrics`) are written with plain loads and stores by one thread
//! at a time — the one holding `&mut Shard` — and read by anyone. The
//! first test is the reader's half: polling from another thread while
//! the owner works, it sees whole values that never go down, and every
//! share and sample is there at the end. The others are the writer's
//! half: two threads recording into one histogram, or bumping one
//! counter, break the contract, and a debug build says so.
//!
//! CI runs this file in debug and in `--release`: the plain store and
//! the checked one are different code.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::metrics::HostMetrics;
use mcss_server::{ServerConfig, ShardSet};

const CHANNELS: usize = 5;
const SYMBOL_BYTES: usize = 64;
const SYMBOLS: u64 = 20_000;
/// `(κ, μ) = (2, 3)`.
const SHARES_PER_SYMBOL: u64 = 3;

/// What `metrics` recorded, every value monotone: delay samples over
/// all channels, residencies, draws, then each channel's shares sent
/// and received.
fn recorded(metrics: &HostMetrics) -> Vec<u64> {
    let channels = metrics.channels();
    let mut values = vec![
        channels.iter().map(|ch| ch.one_way_delay.count()).sum(),
        metrics.residency.count(),
        metrics.choices(),
    ];
    for ch in channels {
        values.extend([ch.shares_sent.get(), ch.shares_received.get()]);
    }
    values
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
    let metrics = Arc::clone(&set.shard(0).metrics()[0]);

    let done = AtomicBool::new(false);
    let polls = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut last = (stats.get(), recorded(&metrics));
            while !done.load(Ordering::Acquire) {
                let now = (stats.get(), recorded(&metrics));
                let (was, is) = (&last.0, &now.0);
                assert!(is.symbols_delivered <= SYMBOLS, "{is:?}");
                assert!(is.symbols_delivered >= was.symbols_delivered);
                assert!(is.shares_sent >= was.shares_sent);
                assert!(is.datagrams_received >= was.datagrams_received);
                let monotone = now.1.iter().zip(&last.1).all(|(is, was)| is >= was);
                assert!(monotone, "{:?} after {:?}", now.1, last.1);
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
    let values = recorded(&metrics);
    let shares = SYMBOLS * SHARES_PER_SYMBOL;
    assert_eq!(values[..3], [shares, SYMBOLS, SYMBOLS]);
    let per_channel = |side: usize| values[3 + side..].iter().step_by(2).sum::<u64>();
    assert_eq!((per_channel(0), per_channel(1)), (shares, shares));
}

/// Runs `record` on two threads at once until one of them panics.
#[cfg(debug_assertions)]
fn two_writers(record: impl Fn() + Sync) {
    let tripped = AtomicBool::new(false);
    let hammer = || {
        while !tripped.load(Ordering::Relaxed) {
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(&record)).is_err() {
                tripped.store(true, Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|scope| {
        scope.spawn(hammer);
        scope.spawn(hammer);
    });
}

/// Two threads recording into one set at once lose samples in release;
/// in debug the checked store of whichever loses a race panics, within
/// a few context switches of starting.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "second writer")]
fn a_second_writer_trips_the_debug_assertion() {
    let metrics = HostMetrics::new(1);
    two_writers(|| metrics.residency.record_single_writer(7));
    panic!("second writer caught");
}

/// The same for a counter: two threads bumping one channel's count.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "second writer")]
fn a_second_counter_writer_trips_the_debug_assertion() {
    let metrics = HostMetrics::new(1);
    two_writers(|| metrics.record_send(0));
    panic!("second writer caught");
}
