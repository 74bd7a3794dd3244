//! Determinism properties of the sans-I/O engine, driven by a scripted
//! in-memory harness (no simulator, no sockets):
//!
//! * the same event sequence, seed and share key always produce the
//!   identical action stream and report;
//! * permuting the backlog *values* across channels changes only which
//!   channel each share is assigned to — never the share bytes or the
//!   reconstructed symbols, because the dynamic scheduler's channel pick
//!   is sort-based and draws no randomness.

use std::collections::VecDeque;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::ShareKey;
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{Engine, SourceMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

const N: usize = 4;
const SYMBOL_BYTES: usize = 64;

/// One scripted driver step.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Advance the clock and fire due timers.
    Advance(u64),
    /// Offer one symbol (payload filled with this byte).
    Symbol(u8),
    /// Deliver the oldest in-flight share frame to host B.
    DeliverNext,
}

fn decode_ops(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(tag, val)| match tag % 3 {
            0 => Op::Advance(1 + val % 2_000_000), // ≤ 2 ms steps
            1 => Op::Symbol((val & 0xff) as u8),
            _ => Op::DeliverNext,
        })
        .collect()
}

/// Everything observable about a run: the full action stream (frames
/// included) plus the closing report, with channel assignments split
/// out so callers can compare content and placement independently.
#[derive(Debug, Clone, PartialEq)]
struct RunLog {
    /// Actions in drain order, with `SendShare.channel` zeroed.
    actions_sans_channels: Vec<Action>,
    /// The `SendShare.channel` values in drain order.
    share_channels: Vec<usize>,
    /// Reconstructed symbols in delivery order.
    delivered: Vec<(u64, Vec<u8>)>,
}

/// Runs the scripted ops against a fresh engine. `backlogs[i]` is
/// channel `i`'s send backlog from A.
fn run(ops: &[Op], seed: u64, backlogs: &[SimTime; N]) -> RunLog {
    let config = ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_symbol_bytes(SYMBOL_BYTES);
    let mut engine = Engine::new(config, N, SourceMode::External)
        .unwrap()
        .with_share_key(ShareKey::insecure_from_seed(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    for (channel, &backlog) in backlogs.iter().enumerate() {
        engine.set_backlog(channel, Endpoint::A, backlog);
    }

    let mut now = SimTime::ZERO;
    let mut timers: VecDeque<(SimTime, u64)> = VecDeque::new(); // (at, token), FIFO per push
    let mut in_flight: VecDeque<Vec<u8>> = VecDeque::new();
    let mut log = RunLog {
        actions_sans_channels: Vec::new(),
        share_channels: Vec::new(),
        delivered: Vec::new(),
    };

    let drain = |engine: &mut Engine,
                 log: &mut RunLog,
                 timers: &mut VecDeque<(SimTime, u64)>,
                 in_flight: &mut VecDeque<Vec<u8>>| {
        while let Some(action) = engine.poll_action() {
            match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                } => {
                    log.share_channels.push(channel);
                    log.actions_sans_channels.push(Action::SendShare {
                        channel: 0,
                        from,
                        frame: frame.clone(),
                    });
                    engine.share_send_ok(channel);
                    in_flight.push_back(frame);
                }
                Action::SetTimer { token, at } => {
                    log.actions_sans_channels
                        .push(Action::SetTimer { token, at });
                    timers.push_back((at, token));
                }
                other => {
                    if let Action::DeliverSymbol { seq, payload } = &other {
                        log.delivered.push((*seq, payload.clone()));
                    }
                    log.actions_sans_channels.push(other);
                }
            }
        }
    };

    engine.handle(now, Event::Started, &mut rng);
    drain(&mut engine, &mut log, &mut timers, &mut in_flight);

    for op in ops {
        match *op {
            Op::Advance(nanos) => {
                now += SimTime::from_nanos(nanos);
                loop {
                    // Earliest due timer; FIFO among equal due times.
                    let due = timers
                        .iter()
                        .enumerate()
                        .filter(|(_, (at, _))| *at <= now)
                        .min_by_key(|(idx, (at, _))| (*at, *idx))
                        .map(|(idx, _)| idx);
                    let Some(idx) = due else { break };
                    let (_, token) = timers.remove(idx).expect("index valid");
                    engine.handle(now, Event::TimerFired { token }, &mut rng);
                    drain(&mut engine, &mut log, &mut timers, &mut in_flight);
                }
            }
            Op::Symbol(fill) => {
                let payload = vec![fill; SYMBOL_BYTES];
                engine.handle(now, Event::SymbolReady { payload: &payload }, &mut rng);
                drain(&mut engine, &mut log, &mut timers, &mut in_flight);
            }
            Op::DeliverNext => {
                let Some(frame) = in_flight.pop_front() else {
                    continue;
                };
                engine
                    .handle_frame(now, 0, Endpoint::B, &frame, &mut rng)
                    .expect("engine frames decode");
                drain(&mut engine, &mut log, &mut timers, &mut in_flight);
                engine.recycle(frame);
            }
        }
    }
    log
}

fn permutation(seed: u64) -> [usize; N] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm = [0usize; N];
    for (i, slot) in perm.iter_mut().enumerate() {
        *slot = i;
    }
    for i in (1..N).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #[test]
    fn same_events_same_seed_same_actions(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..120),
        seed in any::<u64>(),
    ) {
        let ops = decode_ops(&raw);
        let backlogs = [SimTime::ZERO; N];
        let a = run(&ops, seed, &backlogs);
        let b = run(&ops, seed, &backlogs);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn backlog_values_steer_channels_but_never_content(
        raw in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..80),
        seed in any::<u64>(),
        perm_seed in any::<u64>(),
    ) {
        let ops = decode_ops(&raw);
        let values = [
            SimTime::ZERO,
            SimTime::from_micros(50),
            SimTime::from_millis(5),
            SimTime::from_millis(20),
        ];
        let perm = permutation(perm_seed);
        let mut permuted = values;
        for i in 0..N {
            permuted[i] = values[perm[i]];
        }
        let a = run(&ops, seed, &values);
        let b = run(&ops, seed, &permuted);
        // Moving the congestion to different channels may move shares to
        // different channels — but the dynamic scheduler's channel pick
        // is sort-based (no RNG), so the share frames and reconstructed
        // symbols are byte-identical.
        prop_assert_eq!(a.actions_sans_channels, b.actions_sans_channels);
        prop_assert_eq!(a.delivered, b.delivered);
    }
}
