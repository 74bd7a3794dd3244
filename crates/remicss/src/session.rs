//! The simulator driver: a thin [`mcss_netsim::Application`] adapter
//! that feeds the sans-I/O [`Engine`] from the discrete-event simulator.
//!
//! All protocol behaviour lives in [`crate::engine`]; this module only
//! translates simulator callbacks into [`Event`]s and received frames
//! (setting the engine's channel backlogs from the links' before any
//! event that may transmit) and performs the drained [`Action`]s against
//! the simulator's channels and timer queue.
//!
//! Two workloads mirror the paper's measurements:
//!
//! * [`Workload::Cbr`] — `iperf`-style: host A offers symbols at a fixed
//!   rate for a fixed duration; host B reports achieved rate and loss
//!   (Figures 3, 5, 6, 7).
//! * [`Workload::Echo`] — the RTT utility: completed symbols are sent
//!   back *through the protocol* and host A records round-trip times;
//!   one-way delay is RTT/2 (Figure 4).
//!
//! With [`Session::record_trace`] enabled, the driver logs every event
//! it feeds and every action it drains; replaying the event log into a
//! fresh [`Engine`] with the same seed and share key reproduces the
//! exact action stream (see `tests/engine_trace.rs`), which is the
//! property that pins the refactor to the pre-sans-I/O behaviour. The
//! simulator's seed drives the model stream only (schedule draws, link
//! loss): shares are drawn under the session's own secret key unless a
//! test sets one ([`Session::with_share_key`]).

use std::sync::Arc;

use mcss_codec::ShareKey;
use mcss_netsim::{Application, ChannelId, Context, Endpoint, SimTime};

use crate::actions::{Action, Event, TIMER_SOURCE};
use crate::config::ProtocolConfig;
use crate::cpu::CpuModel;
use crate::engine::{Engine, SourceMode};

pub use crate::engine::{SessionReport, Workload};

/// One entry of a recorded session trace: an event fed to the engine
/// (with its timestamp) or an action drained from it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceStep {
    /// An event the driver fed to the engine at `now`.
    Event {
        /// The simulator clock when the event was handled.
        now: SimTime,
        /// The event, with owned frame bytes.
        event: TraceEvent,
    },
    /// An action drained from the engine (in drain order).
    Action(Action),
}

/// An owned (replayable) form of the driver-fed [`Event`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// [`Event::Started`].
    Started,
    /// [`Event::TimerFired`].
    Timer {
        /// The timer token.
        token: u64,
    },
    /// The links' send backlogs at `from`, set into the engine with
    /// [`Engine::set_backlog`]: `backlogs[i]` is channel `i`'s.
    Backlogs {
        /// The sending endpoint the backlogs belong to.
        from: Endpoint,
        /// Per-channel send backlogs, indexed by channel.
        backlogs: Vec<SimTime>,
    },
    /// A received wire frame, fed via
    /// [`Engine::handle_frame`](crate::engine::Engine::handle_frame).
    Frame {
        /// Channel the frame arrived on.
        channel: usize,
        /// Receiving endpoint.
        to: Endpoint,
        /// The raw wire bytes.
        bytes: Vec<u8>,
    },
}

/// A running protocol session between hosts A and B: the [`Engine`]
/// driven by the discrete-event simulator.
///
/// See the [crate docs](crate) for a complete example.
pub struct Session {
    engine: Engine,
    echo: bool,
    trace: Option<Vec<TraceStep>>,
}

impl core::fmt::Debug for Session {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("echo", &self.echo)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Builds a session for `n` channels, drawing its shares under a
    /// fresh secret key.
    ///
    /// # Errors
    ///
    /// [`mcss_core::ModelError::InvalidParameters`] if the config's
    /// `(κ, μ)` are invalid for `n` channels.
    pub fn new(
        config: impl Into<Arc<ProtocolConfig>>,
        n: usize,
        workload: Workload,
    ) -> Result<Self, mcss_core::ModelError> {
        let engine = Engine::new(config, n, SourceMode::Paced(workload))?;
        Ok(Session {
            engine,
            echo: matches!(workload, Workload::Echo { .. }),
            trace: None,
        })
    }

    /// The session with its shares drawn under `key` instead
    /// ([`Engine::with_share_key`]).
    #[must_use]
    pub fn with_share_key(mut self, key: ShareKey) -> Self {
        self.engine = self.engine.with_share_key(key);
        self
    }

    /// The session with its hosts' work charged under `model`
    /// ([`Engine::with_cpu_model`]).
    #[must_use]
    pub fn with_cpu_model(mut self, model: CpuModel) -> Self {
        self.engine = self.engine.with_cpu_model(model);
        self
    }

    /// Starts recording every event fed to the engine and every action
    /// drained from it. Intended for replay tests; costs one frame-bytes
    /// clone per delivery.
    pub fn record_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace (empty if recording was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceStep> {
        self.trace.take().unwrap_or_default()
    }

    /// The driven sans-I/O engine, which the session also dereferences
    /// to: its report, adaptive controller, metrics (a host of one's) and
    /// processors are the engine's.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Sets the engine's backlogs of `from`'s channels to the links'.
    /// Done before any event that may transmit, so the scheduler sees
    /// exactly what `ctx.backlog` would have said.
    fn feed_backlogs(&mut self, ctx: &Context<'_>, from: Endpoint) {
        let n = self.engine.channels();
        for channel in 0..n {
            self.engine
                .set_backlog(channel, from, ctx.backlog(channel, from));
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceStep::Event {
                now: ctx.now(),
                event: TraceEvent::Backlogs {
                    from,
                    backlogs: (0..n).map(|i| ctx.backlog(i, from)).collect(),
                },
            });
        }
    }

    /// Drains the engine's action queue against the simulator, in order:
    /// transmissions first report their queue outcome back to the
    /// engine, timers go to the event queue. The in-order drain keeps
    /// the simulator's event/RNG interleaving identical to the
    /// pre-sans-I/O session. Then the buffers of the frames the links
    /// lost go back to the pool, emptied and after the whole batch: the
    /// engine learns nothing of which share was lost.
    fn apply_actions(&mut self, ctx: &mut Context<'_>) {
        while let Some(action) = self.engine.poll_action() {
            if let Some(trace) = self.trace.as_mut() {
                trace.push(TraceStep::Action(action.clone()));
            }
            match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                } => match ctx.send(channel, from, frame) {
                    Ok(()) => self.engine.share_send_ok(channel),
                    Err(rejected) => self.engine.share_send_rejected(channel, rejected),
                },
                Action::SendControl {
                    channel,
                    from,
                    frame,
                } => {
                    if let Err(rejected) = ctx.send(channel, from, frame) {
                        self.engine.recycle(rejected);
                    }
                }
                Action::SetTimer { token, at } => ctx.set_timer(at, token),
                Action::DeliverSymbol { .. } => {
                    unreachable!("paced sessions deliver internally")
                }
            }
        }
        while let Some(buf) = ctx.take_lost() {
            self.engine.recycle(buf);
        }
    }
}

impl core::ops::Deref for Session {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl Application for Session {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceStep::Event {
                now,
                event: TraceEvent::Started,
            });
        }
        self.engine.handle(now, Event::Started, ctx.rng());
        self.apply_actions(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == TIMER_SOURCE {
            // The source tick transmits from A; refresh A's readiness.
            self.feed_backlogs(ctx, Endpoint::A);
        }
        let now = ctx.now();
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceStep::Event {
                now,
                event: TraceEvent::Timer { token },
            });
        }
        self.engine
            .handle(now, Event::TimerFired { token }, ctx.rng());
        self.apply_actions(ctx);
    }

    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        channel: ChannelId,
        to: Endpoint,
        buf: Vec<u8>,
    ) {
        // The wire buffer is the one a send handed the simulator: let the
        // engine decode borrowing from it, then recycle it for the next
        // send.
        if self.echo && to == Endpoint::B {
            // A completed symbol at B echoes back: refresh B's readiness.
            self.feed_backlogs(ctx, Endpoint::B);
        }
        let now = ctx.now();
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceStep::Event {
                now,
                event: TraceEvent::Frame {
                    channel,
                    to,
                    bytes: buf.clone(),
                },
            });
        }
        let _ = self.engine.handle_frame(now, channel, to, &buf, ctx.rng());
        self.apply_actions(ctx);
        self.engine.recycle(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::HostCpu;
    use crate::testbed;
    use mcss_core::setups;
    use mcss_core::ShareSchedule;
    use mcss_netsim::Simulator;

    fn run(
        channels: &mcss_core::ChannelSet,
        config: &Arc<ProtocolConfig>,
        workload: Workload,
        seed: u64,
    ) -> SessionReport {
        run_on(
            Session::new(Arc::clone(config), channels.len(), workload).unwrap(),
            channels,
            seed,
        )
        .0
    }

    /// Runs `session` over `channels` to two seconds past its window;
    /// returns its report and its host's processors.
    fn run_on(
        session: Session,
        channels: &mcss_core::ChannelSet,
        seed: u64,
    ) -> (SessionReport, HostCpu) {
        let window = session.engine().duration();
        let net = testbed::network_for(channels, session.engine().config());
        let mut sim = Simulator::new(net, session, seed);
        sim.run_until(window + SimTime::from_secs(2));
        (sim.app().report(window), sim.app().engine().cpu().clone())
    }

    #[test]
    fn cbr_on_clean_channels_delivers_everything() {
        let channels = setups::diverse();
        let config = Arc::new(ProtocolConfig::new(2.0, 3.0).unwrap());
        let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_millis(500)),
            1,
        );
        assert!(r.offered_symbols > 100);
        assert_eq!(r.offered_symbols, r.sent_symbols);
        assert_eq!(r.corrupted_symbols, 0);
        assert_eq!(r.wire_errors, 0);
        assert!(
            r.loss_fraction < 0.01,
            "clean channels lost {}",
            r.loss_fraction
        );
        // Dynamic scheduler respects the configured means.
        assert!((r.mean_k - 2.0).abs() < 0.05, "mean k {}", r.mean_k);
        assert!((r.mean_m - 3.0).abs() < 0.05, "mean m {}", r.mean_m);
    }

    #[test]
    fn achieved_rate_tracks_offered_when_undersubscribed() {
        let channels = setups::identical(100.0);
        let config = Arc::new(ProtocolConfig::new(1.0, 2.0).unwrap());
        let opt = testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let offered = 0.6 * opt;
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_millis(500)),
            2,
        );
        let expected_bps = testbed::payload_bps(offered, &config);
        assert!(
            (r.achieved_payload_bps - expected_bps).abs() / expected_bps < 0.05,
            "achieved {} vs offered {expected_bps}",
            r.achieved_payload_bps
        );
    }

    #[test]
    fn lossy_channels_lose_roughly_the_subset_loss() {
        // κ = m = 5 on the Lossy setup: symbol lost if ANY share lost.
        let channels = setups::lossy();
        let config = Arc::new(ProtocolConfig::new(5.0, 5.0).unwrap());
        let offered = 0.8 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_secs(4)),
            3,
        );
        // l(5, C) = 1 − Π(1−lᵢ) ≈ 7.3%; ~1570 symbols give σ ≈ 0.7%.
        let expect: f64 = 1.0 - setups::LOSSY_LOSS.iter().map(|l| 1.0 - l).product::<f64>();
        assert!(
            (r.loss_fraction - expect).abs() < 0.025,
            "loss {} expected ~{expect}",
            r.loss_fraction
        );
    }

    #[test]
    fn redundancy_masks_loss() {
        // κ = 1, μ = 5: symbol survives unless all five shares are lost.
        let channels = setups::lossy();
        let config = Arc::new(ProtocolConfig::new(1.0, 5.0).unwrap());
        let offered = 0.8 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_secs(1)),
            4,
        );
        assert!(
            r.loss_fraction < 1e-3,
            "full redundancy still lost {}",
            r.loss_fraction
        );
    }

    #[test]
    fn echo_workload_measures_rtt() {
        let channels = setups::delayed();
        let config = Arc::new(ProtocolConfig::new(1.0, 1.0).unwrap());
        let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::echo(offered, SimTime::from_millis(500)),
            5,
        );
        let rtt = r.mean_rtt.expect("echo produces RTT samples");
        // One-way delays range 0.25–12.5 ms; RTT must be within sanity.
        assert!(rtt >= SimTime::from_micros(400), "rtt {rtt}");
        assert!(rtt <= SimTime::from_millis(40), "rtt {rtt}");
    }

    #[test]
    fn static_scheduler_respects_lp_schedule() {
        let channels = setups::diverse();
        let config = ProtocolConfig::new(2.0, 3.0).unwrap();
        let share_channels = testbed::share_rate_channels(&channels, &config).unwrap();
        let schedule = mcss_core::lp_schedule::optimal_schedule_at_max_rate(
            &share_channels,
            2.0,
            3.0,
            mcss_core::lp_schedule::Objective::Privacy,
        )
        .unwrap();
        let config = Arc::new(
            config.with_scheduler(crate::config::SchedulerKind::Static(Arc::new(schedule))),
        );
        let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_millis(500)),
            6,
        );
        assert!((r.mean_k - 2.0).abs() < 0.05);
        assert!((r.mean_m - 3.0).abs() < 0.05);
        assert!(r.loss_fraction < 0.01);
    }

    #[test]
    fn round_robin_scheduler_works() {
        let channels = setups::identical(50.0);
        let config = Arc::new(
            ProtocolConfig::new(2.0, 2.0)
                .unwrap()
                .with_scheduler(crate::config::SchedulerKind::RoundRobin),
        );
        let offered = 0.5 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_millis(300)),
            7,
        );
        assert!(r.delivered_symbols > 0);
        assert!(r.loss_fraction < 0.01);
    }

    #[test]
    fn max_privacy_static_schedule_runs() {
        let channels = setups::diverse();
        let config = Arc::new(ProtocolConfig::new(5.0, 5.0).unwrap().with_scheduler(
            crate::config::SchedulerKind::Static(Arc::new(ShareSchedule::max_privacy(5))),
        ));
        let offered = 0.8 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
        let r = run(
            &channels,
            &config,
            Workload::cbr(offered, SimTime::from_millis(300)),
            8,
        );
        assert_eq!(r.mean_k, 5.0);
        assert_eq!(r.mean_m, 5.0);
        assert!(r.loss_fraction < 0.01);
    }

    #[test]
    fn cpu_model_caps_throughput() {
        let channels = setups::identical(800.0);
        let base = Arc::new(ProtocolConfig::new(1.0, 1.0).unwrap());
        let offered = testbed::optimal_symbol_rate(&channels, &base).unwrap();
        let workload = Workload::cbr(offered, SimTime::from_millis(300));
        // Without CPU model: near wire rate. With: capped well below.
        let free = run(&channels, &base, workload, 9);
        let session = Session::new(Arc::clone(&base), channels.len(), workload)
            .unwrap()
            .with_cpu_model(CpuModel::paper_testbed());
        let (capped, cpu) = run_on(session, &channels, 9);
        assert!(
            capped.achieved_payload_bps < 0.5 * free.achieved_payload_bps,
            "cpu cap ineffective: {} vs {}",
            capped.achieved_payload_bps,
            free.achieved_payload_bps
        );
        assert!(cpu.shed(Endpoint::A) > 0);
    }

    #[test]
    fn determinism_same_seed() {
        let channels = setups::lossy();
        let mk = || Arc::new(ProtocolConfig::new(2.0, 3.5).unwrap());
        let w = Workload::cbr(1000.0, SimTime::from_millis(300));
        let a = run(&channels, &mk(), w, 77);
        let b = run(&channels, &mk(), w, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn report_zero_sent_is_safe() {
        let s = Session::new(
            ProtocolConfig::new(1.0, 1.0).unwrap(),
            5,
            Workload::cbr(10.0, SimTime::ZERO),
        )
        .unwrap();
        let r = s.report(SimTime::from_secs(1));
        assert_eq!(r.mean_k, 0.0);
        assert_eq!(r.delivered_symbols, 0);
        // Over a zero window both rates read 0, not 0 / 0.
        let r = s.report(SimTime::ZERO);
        assert_eq!((r.achieved_payload_bps, r.achieved_symbol_rate), (0.0, 0.0));
    }
}
