//! Sharded-vs-serial determinism pin: the trace-replay equality from
//! `engine_trace.rs`, routed through the server's demux path instead of
//! a bare engine.
//!
//! Each recorded single-session simulator run (CBR, echo, and adaptive
//! feedback — the same workloads, seeds, and channel setup as the
//! serial pin) is replayed as one of several concurrent sessions on a
//! [`ShardSet`], with every recorded frame wrapped in the connection-ID
//! prefix and delivered through [`ShardSet::deliver_datagram`] as if a
//! rotating sequence of shards had read it off the wire. The per-session
//! action streams and final reports must be bit-identical to the
//! recorded serial run for shard counts 1, 2, and 8 and for both share
//! codecs — sharding, demux, and cross-shard handoff may not perturb a
//! session by a single byte.
//!
//! A hosted engine writes its frames behind the session's demux prefix,
//! into the buffer that then *is* the outbound datagram. So "identical"
//! means: every frame the hosted engine emits, and every datagram the
//! shard queues, is the connection-ID prefix followed by exactly the
//! frame the standalone engine emitted at that step.

use std::sync::Arc;

use mcss_base::{Endpoint, SimTime};
use mcss_codec::CodecId;
use mcss_netsim::Simulator;
use mcss_remicss::actions::Action;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::SourceMode;
use mcss_remicss::session::{Session, TraceEvent, TraceStep};
use mcss_remicss::{testbed, SessionReport, Workload};
use mcss_server::{ServerConfig, ShardSet};

/// One serial pin run: the recorded event/action trace plus the report
/// the sharded replay must reproduce.
struct RecordedRun {
    label: &'static str,
    config: Arc<ProtocolConfig>,
    workload: Workload,
    seed: u64,
    report: SessionReport,
    trace: Vec<TraceStep>,
}

fn record(
    label: &'static str,
    config: Arc<ProtocolConfig>,
    workload: Workload,
    seed: u64,
) -> RecordedRun {
    let channels = mcss_core::setups::diverse();
    let net = testbed::network_for(&channels, &config);
    let mut session = Session::new(Arc::clone(&config), channels.len(), workload).unwrap();
    session.record_trace();
    let mut sim = Simulator::new(net, session, seed);
    sim.run_until(workload.duration() + SimTime::from_secs(2));
    let report = sim.app().report(workload.duration());
    // The server driver reports every enqueued share as sent, so the
    // replay semantics require the recorded run to be drop-free.
    assert_eq!(
        report.send_queue_drops, 0,
        "{label}: pin run must be drop-free"
    );
    assert!(report.sent_symbols > 50, "{label}: pin run too short");
    let trace = sim.app_mut().take_trace();
    assert!(
        trace
            .iter()
            .any(|s| matches!(s, TraceStep::Action(Action::SendShare { .. }))),
        "{label}: trace recorded no transmissions"
    );
    RecordedRun {
        label,
        config,
        workload,
        seed,
        report,
        trace,
    }
}

/// The three serial pin scenarios of `engine_trace.rs`, on `codec`.
fn recorded_runs(codec: CodecId) -> Vec<RecordedRun> {
    let channels = mcss_core::setups::diverse();
    let base = ProtocolConfig::new(2.0, 3.0).unwrap().with_codec(codec);
    let plain = Arc::new(base.clone());
    let adaptive = Arc::new(base.with_adaptive(0.01));
    let rate = testbed::optimal_symbol_rate(&channels, &plain).unwrap();
    let window = SimTime::from_millis(300);
    vec![
        record(
            "cbr",
            Arc::clone(&plain),
            Workload::cbr(0.5 * rate, window),
            42,
        ),
        record("echo", plain, Workload::echo(0.3 * rate, window), 7),
        record(
            "adaptive",
            Arc::clone(&adaptive),
            Workload::cbr(
                0.5 * testbed::optimal_symbol_rate(&channels, &adaptive).unwrap(),
                window,
            ),
            9,
        ),
    ]
}

/// `action` as session `cid`'s hosted engine emits it: frames behind the
/// session's demux prefix, everything else unchanged.
fn hosted(action: &Action, cid: u32) -> Action {
    let mut action = action.clone();
    if let Action::SendShare { frame, .. } | Action::SendControl { frame, .. } = &mut action {
        let mut bytes = Vec::new();
        mcss_remicss::wire::put_cid_prefix(&mut bytes, cid);
        bytes.extend_from_slice(frame);
        *frame = bytes;
    }
    action
}

/// Replays every recorded run concurrently on one `ShardSet`,
/// interleaving the sessions step by step and rotating which shard
/// "reads" each inbound frame, then asserts per-session bit-equality
/// with the serial recording.
fn assert_sharded_replay_matches(runs: &[RecordedRun], shards: usize) {
    let mut set = ShardSet::new(&ServerConfig::with_shards(shards));
    // Consecutive cids spread the sessions across shards (for any of
    // the pinned shard counts these cover several distinct owners).
    let cids: Vec<u32> = (0..runs.len() as u32).map(|i| 101 + i).collect();
    for (run, &cid) in runs.iter().zip(&cids) {
        set.add_session(
            cid,
            Arc::clone(&run.config),
            mcss_core::setups::diverse().len(),
            SourceMode::Paced(run.workload),
            run.seed,
        )
        .unwrap();
        let owner = set.shard_of(cid);
        set.shard_mut(owner).record_actions(cid);
    }

    // Round-robin one trace step per session per round, so sessions
    // interleave on the shards exactly as concurrent traffic would.
    let mut next_step = vec![0usize; runs.len()];
    let mut received_on = 0usize;
    let mut datagram = Vec::new();
    // What each session's shard queued for the wire, in order.
    let mut outbound: Vec<Vec<(usize, Endpoint, Vec<u8>)>> = vec![Vec::new(); runs.len()];
    loop {
        let mut progressed = false;
        for (s, run) in runs.iter().enumerate() {
            let Some(step) = run.trace.get(next_step[s]) else {
                continue;
            };
            next_step[s] += 1;
            progressed = true;
            let cid = cids[s];
            match step {
                TraceStep::Event { now, event } => match event {
                    TraceEvent::Started => set.start(*now, cid),
                    TraceEvent::Timer { token } => set.fire_timer(*now, cid, *token),
                    TraceEvent::Backlogs { from, backlogs } => {
                        for (channel, &backlog) in backlogs.iter().enumerate() {
                            set.channel_writable(*now, cid, channel, *from, backlog);
                        }
                    }
                    TraceEvent::Frame { channel, to, bytes } => {
                        datagram.clear();
                        mcss_remicss::wire::put_cid_prefix(&mut datagram, cid);
                        datagram.extend_from_slice(bytes);
                        set.deliver_datagram(*now, *channel, *to, &datagram, received_on);
                        received_on = (received_on + 1) % shards;
                    }
                },
                // Action steps are assertions, not inputs: the shard
                // logged the engine's actions as they were emitted.
                TraceStep::Action(_) => {}
            }
            // One session was driven, so what its shard queued is its.
            let owner = set.shard_of(cid);
            while let Some(d) = set.shard_mut(owner).pop_outbound() {
                assert_eq!(d.cid, cid, "{} (shards={shards})", run.label);
                outbound[s].push((d.channel, d.from, d.bytes));
            }
        }
        if !progressed {
            break;
        }
    }

    let totals = set.totals();
    assert_eq!(totals.dropped_unknown_cid, 0, "shards={shards}");
    assert_eq!(totals.dropped_malformed, 0, "shards={shards}");
    assert_eq!(totals.dropped_bad_frame, 0, "shards={shards}");
    assert_eq!(totals.handoff_rejected, 0, "shards={shards}");
    if shards > 1 {
        // The rotating reader guarantees frames regularly land on
        // non-owning shards, so the handoff path really ran.
        assert!(
            totals.handoff_in > 0,
            "shards={shards}: replay never exercised cross-shard handoff"
        );
    }

    for ((run, &cid), outbound) in runs.iter().zip(&cids).zip(outbound) {
        let expected: Vec<Action> = run
            .trace
            .iter()
            .filter_map(|s| match s {
                TraceStep::Action(a) => Some(hosted(a, cid)),
                TraceStep::Event { .. } => None,
            })
            .collect();
        let owner = set.shard_of(cid);
        let got = set.shard_mut(owner).take_action_log(cid);
        assert_eq!(
            got.len(),
            expected.len(),
            "{} (shards={shards}): action count diverged",
            run.label
        );
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "{} (shards={shards}): action {i} diverged", run.label);
        }
        // The datagrams are those frames, moved and not rewritten.
        let frames: Vec<(usize, Endpoint, Vec<u8>)> = expected
            .into_iter()
            .filter_map(|action| match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                }
                | Action::SendControl {
                    channel,
                    from,
                    frame,
                } => Some((channel, from, frame)),
                Action::SetTimer { .. } | Action::DeliverSymbol { .. } => None,
            })
            .collect();
        assert!(
            outbound == frames,
            "{} (shards={shards}): outbound datagrams diverged",
            run.label
        );
        let replayed = set.report(cid, run.workload.duration());
        assert_eq!(
            replayed, run.report,
            "{} (shards={shards}): report diverged",
            run.label
        );
    }
}

#[test]
fn sharded_replay_is_bit_identical_for_1_2_and_8_shards() {
    for codec in CodecId::ALL {
        let runs = recorded_runs(codec);
        for shards in [1, 2, 8] {
            assert_sharded_replay_matches(&runs, shards);
        }
    }
}
