//! Zero-allocation regression for the cross-shard buffer handoff.
//!
//! Every datagram in this test is read by the *wrong* shard: the reader
//! copies the inner frame into a buffer from its own pool, hands it to
//! the owner through the bounded inbox, and the owner sends the buffer
//! home through the reader's return ring. In steady state that whole
//! round trip — plus the engines' split/frame/reassemble path under it
//! — must allocate nothing, and no buffer may be stranded on the wrong
//! shard (`returns_migrated` stays zero, both pools' miss/grow counters
//! stay flat). The engines have no buffers of their own: frames, the
//! share parked until its sibling arrives and the buffer the symbol is
//! reconstructed into all come out of the owner's pool, so each pool
//! must also end a round with as many idle buffers as it began — every
//! taken buffer goes back.
//!
//! A counting global allocator (filtered to the measured thread, as in
//! the engine-level `zero_alloc` test) snapshots after a warmup window
//! long enough for every pool, ring, and reassembly table to reach its
//! high-water mark. Time moves throughout: every round polls the shard
//! timer wheels, the sessions' demand-armed sweep timers fire and are
//! set again, and the measured window spans several rollovers of the
//! wheel's upper levels — the wheel recycles the storage of drained
//! buckets, so a cursor reaching a bucket it never used allocates
//! nothing. The warmup crosses one such rollover itself, which is when
//! the level above the timers' usual one first gets storage.

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

const SYMBOL_BYTES: usize = 512;
const ROUND: SimTime = SimTime::from_millis(1);
/// 1.5 s: past the first rollover of the wheel level that spans 1.07 s.
const WARMUP_ROUNDS: u64 = 1_500;
/// 6 s: five more of those rollovers.
const MEASURE_ROUNDS: u64 = 6_000;
const CIDS: [u32; 2] = [0, 1];

/// One duty cycle: offer a symbol to each session, deliver every
/// produced datagram to the session's *non-owning* shard so the frame
/// always crosses the handoff queues, then fire the timers now due.
fn round(set: &mut ShardSet, now: SimTime, payload: &[u8]) {
    for &cid in &CIDS {
        set.offer_symbol(now, cid, payload);
    }
    for &cid in &CIDS {
        let owner = set.shard_of(cid);
        let wrong = (owner + 1) % set.num_shards();
        while let Some(datagram) = set.shard_mut(owner).pop_outbound() {
            set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, wrong);
            set.shard_mut(owner).recycle_outbound(datagram.bytes);
        }
        while let Some((_, symbol)) = set.shard_mut(owner).pop_delivered(cid) {
            set.shard_mut(owner).recycle_delivered(cid, symbol);
        }
    }
    set.poll(now);
}

#[test]
fn cross_shard_handoff_is_allocation_free_in_steady_state() {
    ON_MEASURED_THREAD.with(|flag| flag.set(true));
    let config = Arc::new(
        ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(SYMBOL_BYTES)
            .with_reassembly_timeout(SimTime::from_millis(20)),
    );
    let mut set = ShardSet::new(&ServerConfig::with_shards(2));
    for &cid in &CIDS {
        set.add_session(
            cid,
            Arc::clone(&config),
            5,
            SourceMode::External,
            13 + u64::from(cid),
        )
        .unwrap();
        set.start(SimTime::ZERO, cid);
    }
    let payload = vec![0x5au8; SYMBOL_BYTES];

    let mut now = SimTime::ZERO;
    for _ in 0..WARMUP_ROUNDS {
        now += ROUND;
        round(&mut set, now, &payload);
    }
    let warm = set.totals();
    let pool_state = |set: &ShardSet, i: usize| {
        let pool = set.shard(i).pool();
        (pool.misses(), pool.grows(), pool.idle())
    };
    let pool_high_water: Vec<_> = (0..set.num_shards()).map(|i| pool_state(&set, i)).collect();
    let before = allocations();
    for _ in 0..MEASURE_ROUNDS {
        now += ROUND;
        round(&mut set, now, &payload);
    }
    let during = allocations() - before;
    let totals = set.totals();

    // The handoff path and the timers genuinely ran during measurement...
    assert!(
        totals.handoff_in > warm.handoff_in,
        "measurement window saw no cross-shard handoffs"
    );
    assert!(
        totals.timers_fired > warm.timers_fired,
        "measurement window fired no timers"
    );
    assert_eq!(
        totals.handoff_rejected, warm.handoff_rejected,
        "inbox overflowed"
    );
    // ...every buffer made it home rather than migrating pools...
    assert_eq!(totals.returns_migrated, 0, "return ring overflowed");
    // ...no session lost a symbol crossing shards...
    assert_eq!(
        totals.symbols_delivered,
        CIDS.len() as u64 * (WARMUP_ROUNDS + MEASURE_ROUNDS),
        "loopback-through-handoff lost symbols"
    );
    // ...and the steady state allocated nothing: shard pools stayed at
    // their high-water mark, got every buffer back, and the allocator
    // never fired.
    for (i, &warm) in pool_high_water.iter().enumerate() {
        assert_eq!(
            pool_state(&set, i),
            warm,
            "shard {i} pool (misses, grows, idle)"
        );
    }
    assert_eq!(
        during, 0,
        "{during} allocations during {MEASURE_ROUNDS} steady-state handoff rounds"
    );
}
