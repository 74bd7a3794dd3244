//! Serial event-trace equality: the sans-I/O [`Engine`], replayed from
//! a recorded simulator event log with a fresh same-seeded RNG and the
//! same share key, must reproduce the simulator session's exact action
//! stream and final report. This pins the engine extraction to the
//! pre-refactor behaviour bit-for-bit.
//!
//! The recorded runs use loss-free, jitter-free networks, where the
//! simulator's links draw no randomness at all — so the session RNG's
//! entire stream (the model stream) belongs to the engine's scheduler
//! draws, and a standalone replay consumes it identically. The Shamir
//! coefficients come from the share stream instead: both sides draw
//! them under `ShareKey::insecure_from_seed(seed)`, so the frames match
//! byte for byte.

#![cfg(feature = "sim")]

use std::sync::Arc;

use mcss_codec::ShareKey;
use mcss_netsim::{SimTime, Simulator};
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{Engine, SourceMode};
use mcss_remicss::session::{Session, TraceEvent, TraceStep};
use mcss_remicss::{testbed, SessionReport, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_sim(
    channels: &mcss_core::ChannelSet,
    config: &Arc<ProtocolConfig>,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> (SessionReport, Vec<TraceStep>) {
    let window = workload.duration();
    let net = testbed::network_for(channels, config);
    let mut session = Session::new(Arc::clone(config), channels.len(), workload)
        .unwrap()
        .with_share_key(ShareKey::insecure_from_seed(seed));
    if trace {
        session.record_trace();
    }
    let mut sim = Simulator::new(net, session, seed);
    sim.run_until(window + SimTime::from_secs(2));
    let report = sim.app().report(window);
    (report, sim.app_mut().take_trace())
}

/// Replays the recorded event log into a fresh engine with a fresh
/// same-seeded RNG and the same key, asserting the action stream
/// matches step for step.
fn replay(
    config: &Arc<ProtocolConfig>,
    n: usize,
    workload: Workload,
    seed: u64,
    trace: &[TraceStep],
) -> SessionReport {
    let mut engine = Engine::new(Arc::clone(config), n, SourceMode::Paced(workload))
        .unwrap()
        .with_share_key(ShareKey::insecure_from_seed(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending: Vec<Action> = Vec::new();
    for (step_no, step) in trace.iter().enumerate() {
        match step {
            TraceStep::Event { now, event } => {
                assert!(
                    pending.is_empty(),
                    "recorded run drained {} more action(s) before step {step_no}: {pending:?}",
                    pending.len()
                );
                match event {
                    TraceEvent::Started => engine.handle(*now, Event::Started, &mut rng),
                    TraceEvent::Timer { token } => {
                        engine.handle(*now, Event::TimerFired { token: *token }, &mut rng);
                    }
                    TraceEvent::Backlogs { from, backlogs } => {
                        for (channel, &backlog) in backlogs.iter().enumerate() {
                            engine.set_backlog(channel, *from, backlog);
                        }
                    }
                    TraceEvent::Frame { channel, to, bytes } => {
                        engine
                            .handle_frame(*now, *channel, *to, bytes, &mut rng)
                            .expect("recorded frames decode");
                        engine.recycle(bytes.clone());
                    }
                }
                while let Some(action) = engine.poll_action() {
                    pending.push(action);
                }
                pending.reverse(); // pop from the front via pop()
            }
            TraceStep::Action(expected) => {
                let got = pending.pop().unwrap_or_else(|| {
                    panic!("replay produced no action at step {step_no}, expected {expected:?}")
                });
                assert_eq!(&got, expected, "action mismatch at step {step_no}");
                // Mirror the recorded driver's outcome reporting. The
                // recorded runs are drop-free (asserted by the caller),
                // so every share send succeeded.
                match got {
                    Action::SendShare { channel, frame, .. } => {
                        engine.share_send_ok(channel);
                        engine.recycle(frame);
                    }
                    Action::SendControl { frame, .. } => engine.recycle(frame),
                    Action::SetTimer { .. } => {}
                    Action::DeliverSymbol { .. } => {
                        unreachable!("paced engines deliver internally")
                    }
                }
            }
        }
    }
    assert!(
        pending.is_empty(),
        "replay left trailing actions: {pending:?}"
    );
    engine.report(workload.duration())
}

fn assert_trace_replays(
    channels: &mcss_core::ChannelSet,
    config: Arc<ProtocolConfig>,
    workload: Workload,
    seed: u64,
) {
    let (untraced, _) = run_sim(channels, &config, workload, seed, false);
    let (recorded, trace) = run_sim(channels, &config, workload, seed, true);
    // Recording must not perturb the session.
    assert_eq!(untraced, recorded, "trace recording perturbed the run");
    // The replay semantics below assume every send was accepted.
    assert_eq!(recorded.send_queue_drops, 0, "pin runs must be drop-free");
    assert!(
        recorded.sent_symbols > 50,
        "pin run too short to be meaningful"
    );
    assert!(
        trace
            .iter()
            .any(|s| matches!(s, TraceStep::Action(Action::SendShare { .. }))),
        "trace recorded no transmissions"
    );
    let replayed = replay(&config, channels.len(), workload, seed, &trace);
    assert_eq!(replayed, recorded, "replayed report diverged");
}

#[test]
fn cbr_trace_replays_bit_identically() {
    let channels = mcss_core::setups::diverse();
    let config = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap());
    let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let workload = Workload::cbr(offered, SimTime::from_millis(300));
    assert_trace_replays(&channels, config, workload, 42);
}

#[test]
fn echo_trace_replays_bit_identically() {
    let channels = mcss_core::setups::diverse();
    let config = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap());
    let offered = 0.3 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let workload = Workload::echo(offered, SimTime::from_millis(300));
    assert_trace_replays(&channels, config, workload, 7);
}

#[test]
fn adaptive_feedback_trace_replays_bit_identically() {
    // Exercises the control-frame path: feedback epochs, dedup at A,
    // and the adaptive controller's mu rewrites.
    let channels = mcss_core::setups::diverse();
    let config = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap().with_adaptive(0.01));
    let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let workload = Workload::cbr(offered, SimTime::from_millis(300));
    assert_trace_replays(&channels, config, workload, 9);
}
