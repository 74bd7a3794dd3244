//! A shard keeps the partial symbols of every session it hosts in one
//! slab, each session's reassembly table linking its own entries in
//! deadline order. Entries freed by one session are reused by the next,
//! and sessions number their symbols alike, so nothing but the links
//! keeps one session's partials out of another's.
//!
//! One shard hosts four sessions: Shamir `(3, 5)` and XOR/2D
//! `(2.5, 4.2)` at 1 250 B, and two Shamir `(2, 3)` sessions at 64 B.
//! Every millisecond each offers a symbol, and each of its datagrams is
//! delivered to B up to 3 ms later, dropped, or delivered twice, by a
//! draw of its own session's: partials of all four sit in the slab
//! together, complete out of order, and time out. Each session's
//! deliveries, reassembly counters and action log must be those of the
//! same connection ID and seed hosted alone under the same key, and once
//! warm the shared slab allocates nothing (a counting allocator,
//! filtered to the measured thread as in `wrong_shard_zero_alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::{CodecId, ShareKey};
use mcss_remicss::actions::Action;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::reassembly::ReassemblyStats;
use mcss_server::{ServerConfig, ShardSet};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

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
const KEY_SEED: u64 = 35;
/// Each session offers a symbol a millisecond.
const STEP: SimTime = SimTime::from_millis(1);
/// Short enough that a partial left short of its threshold times out
/// a few times a second.
const TIMEOUT: SimTime = SimTime::from_millis(12);

/// A hosted session: its connection ID, seed and protocol.
struct Spec {
    cid: u32,
    seed: u64,
    config: Arc<ProtocolConfig>,
}

fn specs() -> [Spec; 4] {
    let config = |kappa, mu, codec, bytes| {
        let config = ProtocolConfig::new(kappa, mu)
            .unwrap()
            .with_codec(codec)
            .with_symbol_bytes(bytes)
            .with_reassembly_timeout(TIMEOUT);
        Arc::new(config)
    };
    [
        Spec {
            cid: 21,
            seed: 3,
            config: config(3.0, 5.0, CodecId::Shamir, 1_250),
        },
        Spec {
            cid: 22,
            seed: 5,
            config: config(2.5, 4.2, CodecId::Xor2d, 1_250),
        },
        Spec {
            cid: 23,
            seed: 7,
            config: config(2.0, 3.0, CodecId::Shamir, 64),
        },
        Spec {
            cid: 24,
            seed: 9,
            config: config(2.0, 3.0, CodecId::Shamir, 64),
        },
    ]
}

/// A datagram on its way to B.
struct Flight {
    due: SimTime,
    /// Sent order, which breaks ties between datagrams due together.
    order: u64,
    channel: usize,
    bytes: Vec<u8>,
    /// Deliveries still to come: 2 for a datagram duplicated.
    copies: u8,
}

/// A one-shard set hosting some of the specs, and the network between
/// its A and B ends: each session's datagrams meet their fates by a
/// draw of that session's own, so a session hosted alone meets the same
/// ones.
struct Host {
    set: ShardSet,
    /// The index among the specs, connection ID and symbol length of
    /// each session hosted.
    hosted: Vec<(usize, u32, usize)>,
    fates: Vec<StdRng>,
    flights: Vec<Flight>,
    sent: u64,
    payload: Vec<u8>,
}

impl Host {
    fn new(specs: &[Spec], hosted: &[usize], record: bool) -> Self {
        let mut set = ShardSet::new(&ServerConfig::with_shards(1))
            .with_share_key(ShareKey::insecure_from_seed(KEY_SEED));
        for &i in hosted {
            let spec = &specs[i];
            set.add_session(
                spec.cid,
                Arc::clone(&spec.config),
                CHANNELS,
                SourceMode::External,
                spec.seed,
            )
            .unwrap();
            if record {
                set.shard_mut(0).record_actions(spec.cid);
            }
            set.start(SimTime::ZERO, spec.cid);
        }
        Host {
            set,
            hosted: hosted
                .iter()
                .map(|&i| (i, specs[i].cid, specs[i].config.symbol_bytes()))
                .collect(),
            fates: specs
                .iter()
                .map(|spec| StdRng::seed_from_u64(u64::from(spec.cid)))
                .collect(),
            flights: Vec::with_capacity(4_096),
            sent: 0,
            payload: vec![0; 1_250],
        }
    }

    /// Moves the shard's outbound datagrams into flight: each is dropped
    /// (one in ten), delivered twice (one in twenty), or delivered once,
    /// 0 to 3 ms after `now`.
    fn send(&mut self, now: SimTime) {
        while let Some(datagram) = self.set.shard_mut(0).pop_outbound() {
            let &(spec, ..) = self
                .hosted
                .iter()
                .find(|&&(_, cid, _)| cid == datagram.cid)
                .expect("a hosted session sent it");
            let fate = &mut self.fates[spec];
            let copies = match fate.random_range(0..20u32) {
                0 | 1 => 0,
                2 => 2,
                _ => 1,
            };
            let due = now + STEP * fate.random_range(0..=3u64);
            if copies == 0 {
                self.set.shard_mut(0).recycle_outbound(datagram.bytes);
                continue;
            }
            self.sent += 1;
            self.flights.push(Flight {
                due,
                order: self.sent,
                channel: datagram.channel,
                bytes: datagram.bytes,
                copies,
            });
        }
    }

    /// Step `step`: every hosted session offers a symbol, the datagrams
    /// due by then reach B in the order they were sent, and the timers
    /// due fire. Each symbol delivered is shown to `delivered` with its
    /// session's index.
    fn step(&mut self, step: u64, mut delivered: impl FnMut(usize, u64, &[u8])) {
        let now = STEP * step;
        for h in 0..self.hosted.len() {
            let (spec, cid, len) = self.hosted[h];
            for (i, byte) in self.payload[..len].iter_mut().enumerate() {
                *byte = (step as usize * 7 + i * 3 + spec) as u8;
            }
            self.set.offer_symbol(now, cid, &self.payload[..len]);
            self.send(now);
        }
        while let Some(next) = (0..self.flights.len())
            .filter(|&i| self.flights[i].due <= now)
            .min_by_key(|&i| (self.flights[i].due, self.flights[i].order))
        {
            let flight = &mut self.flights[next];
            self.set
                .deliver_datagram(now, flight.channel, Endpoint::B, &flight.bytes, 0);
            flight.copies -= 1;
            if flight.copies == 0 {
                let flight = self.flights.swap_remove(next);
                self.set.shard_mut(0).recycle_outbound(flight.bytes);
            } else {
                // The duplicate trails the original by a millisecond.
                flight.due = now + STEP;
            }
        }
        self.set.poll(now);
        for &(spec, cid, _) in &self.hosted {
            while let Some((seq, payload)) = self.set.shard_mut(0).pop_delivered(cid) {
                delivered(spec, seq, &payload);
                self.set.shard_mut(0).recycle_delivered(cid, payload);
            }
        }
    }
}

/// What one session did: its deliveries, counters and actions.
#[derive(Debug, PartialEq)]
struct Trace {
    delivered: Vec<(u64, Vec<u8>)>,
    reassembly: ReassemblyStats,
    actions: Vec<Action>,
}

#[test]
fn partials_on_one_slab_never_cross() {
    const STEPS: u64 = 400;
    let specs = specs();
    let everyone: Vec<usize> = (0..specs.len()).collect();
    let mut shared = Host::new(&specs, &everyone, true);
    let mut delivered: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); specs.len()];
    for step in 0..STEPS {
        shared.step(step, |spec, seq, payload| {
            delivered[spec].push((seq, payload.to_vec()));
        });
    }
    let window = STEP * STEPS;
    let mut together = ReassemblyStats::default();
    for (i, spec) in specs.iter().enumerate() {
        let mut alone = Host::new(&specs, &[i], true);
        let mut own = Vec::new();
        for step in 0..STEPS {
            alone.step(step, |_, seq, payload| own.push((seq, payload.to_vec())));
        }
        let trace = |host: &mut Host, delivered: Vec<(u64, Vec<u8>)>| Trace {
            delivered,
            reassembly: host.set.report(spec.cid, window).reassembly,
            actions: host.set.shard_mut(0).take_action_log(spec.cid),
        };
        let hosted = trace(&mut shared, std::mem::take(&mut delivered[i]));
        let alone = trace(&mut alone, own);
        assert!(
            hosted.delivered.len() as u64 > STEPS * 3 / 4,
            "cid {}: {} of {STEPS} delivered",
            spec.cid,
            hosted.delivered.len()
        );
        assert!(
            hosted == alone,
            "cid {}: hosted together it differs",
            spec.cid
        );
        let r = hosted.reassembly;
        together.timeout_evictions += r.timeout_evictions;
        together.duplicates += r.duplicates;
        together.stale += r.stale;
    }
    // The run went where it was meant to: partials timed out, and
    // duplicates and late siblings were turned away.
    assert!(together.timeout_evictions > 0, "{together:?}");
    assert!(together.duplicates > 0, "{together:?}");
    assert!(together.stale > 0, "{together:?}");
}

#[test]
fn a_warm_shared_slab_allocates_nothing() {
    /// 1.5 s: past the first rollover of the wheel level that spans
    /// 1.07 s, as in `wrong_shard_zero_alloc`.
    const WARMUP: u64 = 1_500;
    /// Four symbols a step: a thousand symbols.
    const MEASURED: u64 = 250;
    ON_MEASURED_THREAD.with(|flag| flag.set(true));
    let specs = specs();
    let everyone: Vec<usize> = (0..specs.len()).collect();
    let mut host = Host::new(&specs, &everyone, false);
    let mut count = 0u64;
    for step in 0..WARMUP {
        host.step(step, |_, _, _| count += 1);
    }
    let timeouts = |host: &Host| -> u64 {
        let report = |spec: &Spec| host.set.report(spec.cid, SimTime::MAX);
        specs
            .iter()
            .map(|spec| report(spec).reassembly.timeout_evictions)
            .sum()
    };
    let warm = (count, timeouts(&host));
    let before = allocations();
    for step in WARMUP..WARMUP + MEASURED {
        host.step(step, |_, _, _| count += 1);
    }
    let during = allocations() - before;
    assert!(
        count - warm.0 > MEASURED * 3,
        "{} symbols delivered in the measured window",
        count - warm.0
    );
    assert!(
        timeouts(&host) > warm.1,
        "no partial timed out in the measured window"
    );
    assert_eq!(
        during, 0,
        "{during} allocations while four sessions parked partials in one slab"
    );
}
