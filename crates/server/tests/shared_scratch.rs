//! A shard lends one `Scratch` — the scheduler's choice and the codec's
//! split planes — to every session it hosts, so the scratch a symbol is
//! drawn and split in was last written by whichever session transmitted
//! before it. Nothing of that may reach the next session's frames.
//!
//! One shard hosts three sessions that leave the scratch as differently
//! shaped as they can: Shamir `(3, 5)` and XOR/2D `(2.5, 4.2)` at
//! 1 250 B, and Shamir `(2, 3)` at 17 B, whose two planes are shorter
//! than what the first session left in them. Their symbols are offered
//! interleaved, one at a time, and every share is looped back to B.
//! Each session's outbound frames must be, byte for byte, those of the
//! same connection ID and seed hosted alone on a one-session set under
//! the same key; and once warm, the shared scratch allocates nothing
//! however the sessions take turns (a counting allocator, filtered to
//! the measured thread as in `wrong_shard_zero_alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::{CodecId, ShareKey};
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

const CHANNELS: usize = 5;
const KEY_SEED: u64 = 34;
/// One symbol is offered a millisecond.
const STEP: SimTime = SimTime::from_millis(1);

/// A hosted session: its connection ID, seed and protocol.
struct Spec {
    cid: u32,
    seed: u64,
    config: Arc<ProtocolConfig>,
}

fn specs() -> [Spec; 3] {
    let config = |kappa, mu, codec, bytes| {
        let config = ProtocolConfig::new(kappa, mu)
            .unwrap()
            .with_codec(codec)
            .with_symbol_bytes(bytes);
        Arc::new(config)
    };
    [
        Spec {
            cid: 11,
            seed: 3,
            config: config(3.0, 5.0, CodecId::Shamir, 1_250),
        },
        Spec {
            cid: 12,
            seed: 5,
            config: config(2.5, 4.2, CodecId::Xor2d, 1_250),
        },
        Spec {
            cid: 13,
            seed: 7,
            config: config(2.0, 3.0, CodecId::Shamir, 17),
        },
    ]
}

/// A one-shard set hosting `specs`, started.
fn host(specs: &[Spec]) -> ShardSet {
    let mut set = ShardSet::new(&ServerConfig::with_shards(1))
        .with_share_key(ShareKey::insecure_from_seed(KEY_SEED));
    for spec in specs {
        set.add_session(
            spec.cid,
            Arc::clone(&spec.config),
            CHANNELS,
            SourceMode::External,
            spec.seed,
        )
        .unwrap();
        set.start(SimTime::ZERO, spec.cid);
    }
    set
}

/// Writes symbol `symbol`'s payload into `payload` (its length kept).
fn fill(symbol: u64, payload: &mut [u8]) {
    for (i, byte) in payload.iter_mut().enumerate() {
        *byte = (symbol as usize * 7 + i * 3) as u8;
    }
}

/// Symbol `symbol` of the run: offered to `spec` (when the set hosts it)
/// at `symbol` milliseconds, its shares shown to `sent` and looped back
/// to B, its reconstruction checked against `payload`, then the timers
/// due fired. The set polls at every step, whichever session's symbol it
/// is, so a session hosted alone sees its timers fire when it would have
/// among the others.
fn step(
    set: &mut ShardSet,
    symbol: u64,
    cid: Option<u32>,
    payload: &mut [u8],
    mut sent: impl FnMut(usize, Endpoint, &[u8]),
) {
    let now = STEP * symbol;
    if let Some(cid) = cid {
        fill(symbol, payload);
        set.offer_symbol(now, cid, payload);
        while let Some(datagram) = set.shard_mut(0).pop_outbound() {
            assert_eq!(datagram.cid, cid);
            sent(datagram.channel, datagram.from, &datagram.bytes);
            set.deliver_datagram(now, datagram.channel, Endpoint::B, &datagram.bytes, 0);
            set.shard_mut(0).recycle_outbound(datagram.bytes);
        }
        let (_, symbol) = set.shard_mut(0).pop_delivered(cid).expect("lossless");
        assert_eq!(symbol, payload, "cid {cid}");
        set.shard_mut(0).recycle_delivered(cid, symbol);
        assert_eq!(set.shard_mut(0).pop_delivered(cid), None);
    }
    set.poll(now);
}

type Frames = Vec<(usize, Endpoint, Vec<u8>)>;

#[test]
fn a_session_sends_what_it_sends_alone() {
    const SYMBOLS: u64 = 600;
    let specs = specs();
    let mut payloads: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| vec![0; spec.config.symbol_bytes()])
        .collect();

    let mut shared = host(&specs);
    let mut hosted: Vec<Frames> = vec![Vec::new(); specs.len()];
    for symbol in 0..SYMBOLS {
        let i = symbol as usize % specs.len();
        step(
            &mut shared,
            symbol,
            Some(specs[i].cid),
            &mut payloads[i],
            |channel, from, bytes| hosted[i].push((channel, from, bytes.to_vec())),
        );
    }

    for (i, spec) in specs.iter().enumerate() {
        let mut alone = host(std::slice::from_ref(spec));
        let mut frames = Frames::new();
        for symbol in 0..SYMBOLS {
            let own = symbol as usize % specs.len() == i;
            step(
                &mut alone,
                symbol,
                own.then_some(spec.cid),
                &mut payloads[i],
                |channel, from, bytes| frames.push((channel, from, bytes.to_vec())),
            );
        }
        let symbols = SYMBOLS / specs.len() as u64;
        let report = shared.report(spec.cid, STEP * SYMBOLS);
        assert_eq!(report.delivered_symbols, symbols, "cid {}", spec.cid);
        assert!(
            frames.len() as u64 >= 2 * symbols,
            "cid {}: {} frames",
            spec.cid,
            frames.len()
        );
        assert_eq!(hosted[i].len(), frames.len(), "cid {}", spec.cid);
        for (n, (shared, alone)) in hosted[i].iter().zip(&frames).enumerate() {
            assert!(shared == alone, "cid {}: frame {n} differs", spec.cid);
        }
        assert_eq!(report, alone.report(spec.cid, STEP * SYMBOLS));
    }
}

#[test]
fn a_warm_shared_scratch_allocates_nothing() {
    /// 1.5 s: past the first rollover of the wheel level that spans
    /// 1.07 s, as in `wrong_shard_zero_alloc`.
    const WARMUP: u64 = 1_500;
    const MEASURED: u64 = 1_000;
    ON_MEASURED_THREAD.with(|flag| flag.set(true));
    let specs = specs();
    let mut payloads: Vec<Vec<u8>> = specs
        .iter()
        .map(|spec| vec![0; spec.config.symbol_bytes()])
        .collect();
    let mut set = host(&specs);
    let mut run = |set: &mut ShardSet, symbols: std::ops::Range<u64>| {
        for symbol in symbols {
            let i = symbol as usize % specs.len();
            step(
                set,
                symbol,
                Some(specs[i].cid),
                &mut payloads[i],
                |_, _, _| {},
            );
        }
    };
    run(&mut set, 0..WARMUP);
    let warm = set.totals();
    let before = allocations();
    run(&mut set, WARMUP..WARMUP + MEASURED);
    let during = allocations() - before;
    let totals = set.totals();
    assert_eq!(
        totals.symbols_delivered - warm.symbols_delivered,
        MEASURED,
        "every measured symbol was delivered"
    );
    assert_eq!(
        during, 0,
        "{during} allocations while {MEASURED} symbols took turns with one scratch"
    );
}
