//! The reassembly sweep timer is armed on demand: an engine with
//! nothing to expire sets no timer, never has more than one sweep
//! outstanding, and still evicts a starved partial symbol at the very
//! instant a sweep on every multiple of the sweep period would have.

use mcss_base::{Endpoint, SimTime};
use mcss_remicss::actions::{Action, Event, TIMER_SWEEP};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{Engine, SourceMode};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

const N: usize = 3;
const TIMEOUT: SimTime = SimTime::from_millis(100);
/// A quarter of the timeout.
const PERIOD: SimTime = SimTime::from_millis(25);

/// An external-source engine whose shares the test delivers, or not.
struct Loop {
    engine: Engine,
    rng: StdRng,
    /// Due times of the sweep timers set and not yet fired.
    sweeps: Vec<SimTime>,
    /// `(channel, frame)` of the shares sent and not yet delivered.
    sent: Vec<(usize, Vec<u8>)>,
}

impl Loop {
    /// Integer `(κ, μ) = (2, 3)`: every symbol is 2-of-3.
    fn new() -> Self {
        let config = ProtocolConfig::new(2.0, 3.0)
            .unwrap()
            .with_symbol_bytes(32)
            .with_reassembly_timeout(TIMEOUT);
        Loop {
            engine: Engine::new(config, N, SourceMode::External).unwrap(),
            rng: StdRng::seed_from_u64(5),
            sweeps: Vec::new(),
            sent: Vec::new(),
        }
    }

    /// Performs the queued actions; returns how many there were.
    fn drain(&mut self, now: SimTime) -> usize {
        let mut actions = 0;
        while let Some(action) = self.engine.poll_action() {
            actions += 1;
            match action {
                Action::SendShare { channel, frame, .. } => {
                    self.engine.share_send_ok(channel);
                    self.sent.push((channel, frame));
                }
                Action::SetTimer { token, at } => {
                    assert_eq!(token, TIMER_SWEEP, "an external source sets no other timer");
                    assert!(at > now, "sweep set for {at} at {now}");
                    assert_eq!(at.as_nanos() % PERIOD.as_nanos(), 0, "{at} is off the grid");
                    self.sweeps.push(at);
                    assert_eq!(self.sweeps.len(), 1, "a second sweep timer at {now}");
                }
                Action::DeliverSymbol { payload, .. } => self.engine.recycle(payload),
                Action::SendControl { .. } => unreachable!("adaptation is off"),
            }
        }
        actions
    }

    fn offer(&mut self, now: SimTime) {
        self.engine
            .handle(now, Event::SymbolReady { payload: &[7; 32] }, &mut self.rng);
        self.drain(now);
    }

    /// Delivers the `i`-th undelivered share to host B.
    fn deliver(&mut self, now: SimTime, i: usize) {
        let (channel, frame) = self.sent.swap_remove(i);
        self.engine
            .handle_frame(now, channel, Endpoint::B, &frame, &mut self.rng)
            .unwrap();
        self.engine.recycle(frame);
        self.drain(now);
    }

    /// Fires the sweep timer if it is due; returns whether it was.
    fn fire_due(&mut self, now: SimTime) -> bool {
        let Some(i) = self.sweeps.iter().position(|&at| at <= now) else {
            return false;
        };
        self.sweeps.swap_remove(i);
        self.engine
            .handle(now, Event::TimerFired { token: TIMER_SWEEP }, &mut self.rng);
        self.drain(now);
        true
    }

    fn evictions(&self) -> u64 {
        self.engine
            .report(SimTime::from_secs(1))
            .reassembly
            .timeout_evictions
    }
}

#[test]
fn idle_engine_sets_no_timer() {
    let mut l = Loop::new();
    l.engine.handle(SimTime::ZERO, Event::Started, &mut l.rng);
    assert_eq!(l.drain(SimTime::ZERO), 0, "Started arms nothing");

    // A whole symbol: its first share is buffered until the second
    // arrives, which takes a sweep timer — one.
    let t = SimTime::from_millis(3);
    l.offer(t);
    assert!(
        l.sweeps.is_empty(),
        "nothing is buffered before a share arrives"
    );
    while !l.sent.is_empty() {
        l.deliver(t, 0);
    }
    assert_eq!(l.sweeps, [SimTime::from_millis(125)]);

    // It finds nothing left to expire, and the engine goes quiet.
    assert!(l.fire_due(SimTime::from_millis(125)));
    assert!(l.sweeps.is_empty(), "an idle engine re-armed its sweep");
    assert_eq!(l.evictions(), 0);
}

#[test]
fn starved_partial_is_evicted_when_the_periodic_sweep_would() {
    // First shares on and off the grid, and exactly a timeout before a
    // grid instant (older than the timeout only at the one after).
    for first_share_ms in [0, 1, 37, 50, 99, 100, 101] {
        let first_share = SimTime::from_millis(first_share_ms);
        // The periodic sweep: every multiple of the period, evicting
        // what is older than the timeout.
        let mut periodic = PERIOD;
        while periodic.saturating_sub(first_share) <= TIMEOUT {
            periodic += PERIOD;
        }

        let mut l = Loop::new();
        l.engine.handle(SimTime::ZERO, Event::Started, &mut l.rng);
        l.drain(SimTime::ZERO);
        l.offer(first_share);
        l.deliver(first_share, 0); // one share of the two needed
        assert_eq!(l.sweeps, [periodic], "first share at {first_share}");

        assert!(!l.fire_due(periodic - SimTime::from_nanos(1)));
        assert_eq!(l.evictions(), 0);
        assert!(l.fire_due(periodic));
        assert_eq!(l.evictions(), 1, "first share at {first_share}");
        assert!(l.sweeps.is_empty(), "nothing left to expire");
    }
}

#[test]
fn never_more_than_one_sweep_outstanding() {
    // A lossy, reordering channel: `drain` fails the test the moment a
    // second sweep timer is set.
    let mut l = Loop::new();
    let mut chance = StdRng::seed_from_u64(11);
    l.engine.handle(SimTime::ZERO, Event::Started, &mut l.rng);
    l.drain(SimTime::ZERO);
    let mut fired = 0;
    for step in 1..=4_000u64 {
        let now = SimTime::from_millis(step);
        fired += u32::from(l.fire_due(now));
        l.offer(now);
        while l.sent.len() > 4 {
            let i = chance.random_range(0..l.sent.len());
            if chance.random_bool(0.3) {
                let (_, frame) = l.sent.swap_remove(i);
                l.engine.recycle(frame);
            } else {
                l.deliver(now, i);
            }
        }
    }
    assert!(l.evictions() > 100, "the channel starved too few symbols");
    // One sweep per grid instant with something to evict, at most.
    assert!(fired <= 4_000 / 25, "{fired} sweeps in 160 grid instants");
}
