//! `sim_session`: one `Session` in the discrete-event simulator on the
//! paper's Lossy setup, with a static schedule from the §IV-D linear
//! program — the path every figure binary runs.

use std::sync::Arc;
use std::time::Instant;

use mcss_base::{QueueKind, SimTime};
use mcss_core::lp_schedule::{optimal_schedule_at_max_rate, Objective};
use mcss_core::{setups, ChannelSet, ShareSchedule};
use mcss_netsim::Simulator;
use mcss_remicss::config::{ProtocolConfig, SchedulerKind};
use mcss_remicss::engine::Workload;
use mcss_remicss::session::Session;
use mcss_remicss::testbed;

use crate::alloc;
use crate::stats::{process_cpu_ns, CpuRotation};

pub const KAPPA: f64 = 2.0;
pub const MU: f64 = 3.0;
/// Offered symbol rate as a share of the Theorem 4 optimum `R_C`.
const LOAD: f64 = 0.8;
/// Symbols per timed window (a window is this many source periods of
/// simulated time, so its work is fixed). The session has no periodic
/// work a window must contain, so windows are short: the fastest one is
/// reported, and a quiet 12 ms is likelier than a quiet 50.
pub const WINDOW_SYMBOLS: u64 = 4_096;

pub struct SimSetup {
    pub sim: Simulator<Session>,
    pub config: Arc<ProtocolConfig>,
    pub schedule: Arc<ShareSchedule>,
    /// The Lossy channels in shares per second under this framing.
    pub share_channels: ChannelSet,
    pub offered_per_s: f64,
    /// Wall time of the LP solve alone, milliseconds.
    pub lp_ms: f64,
}

/// Solves the schedule, builds the network and session, starts the
/// simulator.
pub fn set_up(seed: u64) -> SimSetup {
    let channels = setups::lossy();
    let base = ProtocolConfig::new(KAPPA, MU).expect("valid (kappa, mu)");
    let share_channels =
        testbed::share_rate_channels(&channels, &base).expect("lossy setup converts");
    let t = Instant::now();
    // The program of §IV-D: least loss among the schedules that sustain
    // R_C. (The unconstrained program parks every symbol on the three
    // cleanest channels and cannot carry 0.8 R_C.)
    let schedule = Arc::new(
        optimal_schedule_at_max_rate(&share_channels, KAPPA, MU, Objective::Loss)
            .expect("feasible program"),
    );
    let lp_ms = t.elapsed().as_secs_f64() * 1e3;
    let config = Arc::new(base.with_scheduler(SchedulerKind::Static(Arc::clone(&schedule))));
    let offered_per_s =
        LOAD * testbed::optimal_symbol_rate(&channels, &config).expect("mu within channels");
    let network = testbed::network_for(&channels, &config);
    let session = Session::new(
        Arc::clone(&config),
        channels.len(),
        Workload::cbr(offered_per_s, SimTime::from_secs(10_000_000)),
    )
    .expect("valid session");
    let sim = Simulator::with_queue_kind(network, session, seed, QueueKind::Heap);
    SimSetup {
        sim,
        config,
        schedule,
        share_channels,
        offered_per_s,
        lp_ms,
    }
}

#[derive(Debug, Default)]
pub struct SimPhase {
    /// Wall nanoseconds per delivered symbol, one reading per window.
    pub window_ns: Vec<f64>,
    /// Process CPU microseconds per delivered symbol, per window.
    pub window_cpu_us: Vec<f64>,
    pub allocs: u64,
    pub delivered: u64,
    pub events: u64,
}

impl SimSetup {
    fn window(&self) -> SimTime {
        SimTime::from_secs_f64(WINDOW_SYMBOLS as f64 / self.offered_per_s)
    }

    /// Advances one window of simulated time.
    pub fn run_window(&mut self) {
        let until = self.sim.now() + self.window();
        self.sim.run_until(until);
    }

    pub fn delivered(&self) -> u64 {
        self.sim.app().engine().delivered_total()
    }

    /// Runs the fixed warm-up (pools, the event heap and the
    /// reassembly table reach their steady size within the first
    /// window) and returns the allocations of its last window.
    pub fn warm_up(&mut self) -> u64 {
        let mut last = 0;
        for _ in 0..12 {
            let before = alloc::allocs();
            self.run_window();
            last = alloc::allocs() - before;
        }
        last
    }

    pub fn measure(&mut self, seconds: f64, min_windows: usize) -> SimPhase {
        let mut phase = SimPhase::default();
        let (delivered, events) = (self.delivered(), self.sim.events_processed());
        let allocs = alloc::allocs();
        let mut rotation = CpuRotation::start();
        let start = Instant::now();
        while phase.window_ns.len() < min_windows || start.elapsed().as_secs_f64() < seconds {
            rotation.advance();
            let before = self.delivered();
            let (t, cpu) = (Instant::now(), process_cpu_ns());
            self.run_window();
            let (ns, cpu) = (t.elapsed().as_nanos() as f64, process_cpu_ns() - cpu);
            let symbols = (self.delivered() - before).max(1) as f64;
            phase.window_ns.push(ns / symbols);
            phase.window_cpu_us.push(cpu as f64 / 1e3 / symbols);
        }
        phase.allocs = alloc::allocs() - allocs;
        phase.delivered = self.delivered() - delivered;
        phase.events = self.sim.events_processed() - events;
        phase
    }

    /// Share-frame bytes the session put on its channels per symbol
    /// sent (forward direction; nothing flows back in a CBR session).
    pub fn wire_bytes_per_symbol(&self) -> f64 {
        let frames: u64 = self
            .sim
            .network()
            .channels()
            .map(|c| c.forward().stats().offered_frames)
            .sum();
        let report = self.sim.app().report(self.sim.now());
        (frames as usize * self.config.share_wire_bytes()) as f64
            / report.sent_symbols.max(1) as f64
    }
}
