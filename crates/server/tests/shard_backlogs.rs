//! A shard's channel backlogs are the shard's: one `Shard::set_backlog`
//! is read by every session it hosts, with no event per session, and
//! setting them allocates nothing.
//!
//! One shard hosts dynamic `(2, 2)` sessions over five channels and one
//! over three. With every backlog zero each sends its shares on
//! channels 0 and 1; once channel 0's backlog from A is past the
//! readiness threshold, every session's next symbol goes on 1 and 2
//! instead. Then, warm, symbols offered while the backlogs move between
//! rounds allocate nothing (a counting allocator, filtered to the
//! measured thread as in `wrong_shard_zero_alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_server::{ServerConfig, ShardSet};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ON_MEASURED_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    if ON_MEASURED_THREAD.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// `(cid, channels)` of each hosted session.
const SESSIONS: [(u32, usize); 4] = [(1, 5), (2, 5), (3, 5), (4, 3)];
const STEP: SimTime = SimTime::from_millis(1);
/// Far past the readiness threshold.
const BUSY: SimTime = SimTime::from_secs(1);

/// A one-shard set hosting [`SESSIONS`], started.
fn host() -> ShardSet {
    let config = Arc::new(ProtocolConfig::new(2.0, 2.0).unwrap().with_symbol_bytes(64));
    let mut set = ShardSet::new(&ServerConfig::with_shards(1));
    for (cid, channels) in SESSIONS {
        set.add_session(
            cid,
            Arc::clone(&config),
            channels,
            SourceMode::External,
            u64::from(cid),
        )
        .unwrap();
        set.start(SimTime::ZERO, cid);
    }
    set
}

/// Offers one symbol to every session at `now`, loops each share back
/// to B, takes the reconstruction, and returns the channels each
/// session's shares went out on.
fn round(set: &mut ShardSet, now: SimTime, payload: &[u8]) -> [[usize; 2]; SESSIONS.len()] {
    let mut sent = [[usize::MAX; 2]; SESSIONS.len()];
    for (i, (cid, _)) in SESSIONS.into_iter().enumerate() {
        set.offer_symbol(now, cid, payload);
        let mut share = 0;
        while let Some(datagram) = set.shard_mut(0).pop_outbound() {
            assert_eq!(datagram.cid, cid);
            sent[i][share] = datagram.channel;
            share += 1;
            set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, 0);
            set.shard_mut(0).recycle_outbound(datagram.bytes);
        }
        assert_eq!(share, 2, "cid {cid}: a (2, 2) symbol is two shares");
        let (_, symbol) = set.shard_mut(0).pop_delivered(cid).expect("lossless");
        assert_eq!(symbol, payload, "cid {cid}");
        set.shard_mut(0).recycle_delivered(cid, symbol);
    }
    set.poll(now);
    sent
}

#[test]
fn one_backlog_moves_every_session_off_the_busy_channel() {
    let mut set = host();
    let payload = [0x6bu8; 64];
    assert_eq!(round(&mut set, STEP, &payload), [[0, 1]; 4]);
    set.shard_mut(0).set_backlog(0, Endpoint::A, BUSY);
    assert_eq!(round(&mut set, STEP * 2, &payload), [[1, 2]; 4]);
    // B's backlogs are another end's: A's schedule does not read them.
    set.shard_mut(0).set_backlog(1, Endpoint::B, BUSY);
    assert_eq!(round(&mut set, STEP * 3, &payload), [[1, 2]; 4]);
    set.shard_mut(0).set_backlog(0, Endpoint::A, SimTime::ZERO);
    assert_eq!(round(&mut set, STEP * 4, &payload), [[0, 1]; 4]);
}

#[test]
fn a_warm_window_with_backlogs_set_allocates_nothing() {
    /// 1.5 s: past the first rollover of the wheel level that spans
    /// 1.07 s, as in `wrong_shard_zero_alloc`.
    const WARMUP: u64 = 1_500;
    const MEASURED: u64 = 1_000;
    ON_MEASURED_THREAD.with(|flag| flag.set(true));
    let mut set = host();
    let payload = [0x6bu8; 64];
    let run = |set: &mut ShardSet, rounds: std::ops::Range<u64>| {
        for r in rounds {
            // A different channel is busy every round.
            let busy = r as usize % 3;
            for channel in 0..3 {
                let backlog = if channel == busy { BUSY } else { SimTime::ZERO };
                set.shard_mut(0).set_backlog(channel, Endpoint::A, backlog);
            }
            for sent in round(set, STEP * r, &payload) {
                assert!(!sent.contains(&busy), "round {r}: {sent:?}");
            }
        }
    };
    run(&mut set, 0..WARMUP);
    let warm = set.totals();
    let before = allocations();
    run(&mut set, WARMUP..WARMUP + MEASURED);
    let during = allocations() - before;
    assert_eq!(
        set.totals().symbols_delivered - warm.symbols_delivered,
        MEASURED * SESSIONS.len() as u64,
        "every measured symbol was delivered"
    );
    assert_eq!(
        during,
        0,
        "{during} allocations while the backlogs moved under {} sessions",
        SESSIONS.len()
    );
}
