//! Endpoint processing-cost model.
//!
//! The paper's final experiment (§VI-C) raises channel rates until "the
//! bottleneck becomes something other than the capacity of the channels"
//! — the hosts' per-symbol processing. Two observations must be
//! reproduced: throughput levels off once the processing budget binds
//! (Figure 6), and larger thresholds `κ` saturate sooner because Shamir
//! reconstruction work grows with `k` (Figure 7).
//!
//! [`CpuModel`] charges simulated time per symbol processed:
//!
//! * sender: `base + split_per_share_byte · m · bytes` (evaluating `m`
//!   polynomials per byte), plus per-share framing cost;
//! * receiver: `base + recon_per_k2_byte · k² · bytes` (Lagrange
//!   interpolation is quadratic in `k` per byte).
//!
//! A [`CpuClock`] tracks each host's busy horizon; symbols that would
//! push the horizon past a small buffering window are dropped, exactly
//! like a socket overrun on a saturated host.
//!
//! The processor is the host's, not a session's: a [`HostCpu`] holds the
//! model and one clock per endpoint, and its host lends it to every
//! session it runs (`Lent::cpu`), so a saturated host sheds symbols
//! whichever session they belong to.

use mcss_base::{Endpoint, SimTime};

/// Cost coefficients for endpoint processing.
///
/// The defaults are calibrated so that a five-channel Identical setup
/// with 1250-byte symbols saturates around 750 Mbit/s aggregate at
/// `κ = μ = 1`, matching Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Fixed cost per symbol on either host, ns.
    pub per_symbol_ns: f64,
    /// Per-share fixed cost (framing, syscalls), ns.
    pub per_share_ns: f64,
    /// Sender-side splitting cost per share byte, ns (linear in `m`).
    pub split_per_share_byte_ns: f64,
    /// Receiver-side reconstruction cost per byte per `k²`, ns.
    pub recon_per_k2_byte_ns: f64,
    /// How far ahead of real time the host may queue work before
    /// shedding symbols.
    pub busy_window: SimTime,
}

impl CpuModel {
    /// The calibrated default model (see type docs).
    ///
    /// At `κ = μ = 1` and 1250-byte symbols the per-symbol sender cost is
    /// `2000 + 1000 + 1250·8 = 13000 ns`, capping the symbol rate near
    /// `77k symbols/s ≈ 770 Mbit/s` of payload — the Figure 6 knee. At
    /// `κ = 5` the receiver's quadratic reconstruction cost
    /// (`3·25·1250 ns/symbol`) binds first, so large thresholds saturate
    /// sooner, as in Figure 7.
    #[must_use]
    pub fn paper_testbed() -> Self {
        CpuModel {
            per_symbol_ns: 2_000.0,
            per_share_ns: 1_000.0,
            split_per_share_byte_ns: 8.0,
            recon_per_k2_byte_ns: 3.0,
            busy_window: SimTime::from_millis(2),
        }
    }

    /// Sender-side cost of splitting and framing one symbol into `m`
    /// shares.
    #[must_use]
    pub fn send_cost(&self, m: usize, symbol_bytes: usize) -> SimTime {
        let ns = self.per_symbol_ns
            + self.per_share_ns * m as f64
            + self.split_per_share_byte_ns * (m * symbol_bytes) as f64;
        SimTime::from_nanos(ns.round() as u64)
    }

    /// Receiver-side cost of reconstructing one symbol from `k` shares.
    #[must_use]
    pub fn recv_cost(&self, k: usize, symbol_bytes: usize) -> SimTime {
        let ns = self.per_symbol_ns
            + self.per_share_ns * k as f64
            + self.recon_per_k2_byte_ns * ((k * k) * symbol_bytes) as f64;
        SimTime::from_nanos(ns.round() as u64)
    }
}

/// One host's processing horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuClock {
    busy_until: SimTime,
    shed: u64,
}

impl CpuClock {
    /// Attempts to charge `cost` of work at time `now` under `model`'s
    /// buffering window. Returns `true` if the work was accepted,
    /// `false` if the host is saturated and the symbol is shed.
    pub fn try_charge(&mut self, now: SimTime, cost: SimTime, model: &CpuModel) -> bool {
        let start = self.busy_until.max(now);
        if start.saturating_sub(now) > model.busy_window {
            self.shed += 1;
            return false;
        }
        self.busy_until = start + cost;
        true
    }

    /// Number of symbols shed because the host was saturated.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// A host's processors: an optional [`CpuModel`] and the [`CpuClock`]
/// of each endpoint, which every session the host lends it to charges.
/// Without a model (the default) nothing is charged and nothing shed.
#[derive(Debug, Clone, Default)]
pub struct HostCpu {
    model: Option<CpuModel>,
    clocks: [CpuClock; 2],
}

impl HostCpu {
    /// Idle processors that charge work under `model`.
    #[must_use]
    pub fn new(model: CpuModel) -> Self {
        HostCpu {
            model: Some(model),
            ..HostCpu::default()
        }
    }

    /// Charges `at`'s clock at `now` with what `cost` says the work costs
    /// under the model. Returns `false` if the symbol is shed; always
    /// `true` without a model.
    pub fn try_charge(
        &mut self,
        at: Endpoint,
        now: SimTime,
        cost: impl FnOnce(&CpuModel) -> SimTime,
    ) -> bool {
        self.model
            .as_ref()
            .is_none_or(|model| self.clocks[at as usize].try_charge(now, cost(model), model))
    }

    /// Symbols shed at `at` because its processor was saturated.
    #[must_use]
    pub fn shed(&self, at: Endpoint) -> u64 {
        self.clocks[at as usize].shed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_parameters() {
        let m = CpuModel::paper_testbed();
        // Splitting cost grows with multiplicity.
        assert!(m.send_cost(5, 1250) > m.send_cost(1, 1250));
        // Reconstruction cost grows quadratically with threshold.
        let c1 = m.recv_cost(1, 1250).as_nanos() as f64;
        let c5 = m.recv_cost(5, 1250).as_nanos() as f64;
        assert!(c5 > c1 * 5.0, "k=5 cost {c5} should dwarf k=1 cost {c1}");
        // Bigger symbols cost more.
        assert!(m.send_cost(2, 2000) > m.send_cost(2, 100));
    }

    #[test]
    fn clock_accepts_until_window_full() {
        let model = CpuModel {
            per_symbol_ns: 0.0,
            per_share_ns: 0.0,
            split_per_share_byte_ns: 0.0,
            recon_per_k2_byte_ns: 0.0,
            busy_window: SimTime::from_micros(10),
        };
        let mut clock = CpuClock::default();
        let cost = SimTime::from_micros(4);
        let now = SimTime::ZERO;
        assert!(clock.try_charge(now, cost, &model)); // busy to 4 µs
        assert!(clock.try_charge(now, cost, &model)); // 8
        assert!(clock.try_charge(now, cost, &model)); // 12 (8 ≤ 10 at admit)
                                                      // Backlog now 12 µs > 10 µs window: shed.
        assert!(!clock.try_charge(now, cost, &model));
        assert_eq!(clock.shed(), 1);
        // Time passes; the backlog drains and work is accepted again.
        let later = SimTime::from_micros(5);
        assert!(clock.try_charge(later, cost, &model));
        assert_eq!(clock.busy_until, SimTime::from_micros(16));
    }

    #[test]
    fn idle_clock_starts_at_now() {
        let model = CpuModel::paper_testbed();
        let mut clock = CpuClock::default();
        let now = SimTime::from_secs(1);
        assert!(clock.try_charge(now, SimTime::from_micros(1), &model));
        assert_eq!(
            clock.busy_until,
            SimTime::from_secs(1) + SimTime::from_micros(1)
        );
    }

    #[test]
    fn default_calibration_caps_near_target() {
        // At κ=μ=1, 1250-byte symbols: sender cost should allow roughly
        // 80–100k symbols/s (≈ 0.8–1.0 Gbit/s payload), so that combined
        // with receiver cost the knee lands around 750 Mbit/s aggregate.
        let m = CpuModel::paper_testbed();
        let cost = m.send_cost(1, 1250).as_nanos() as f64;
        let rate = 1e9 / cost;
        assert!(
            (60_000.0..120_000.0).contains(&rate),
            "sender symbol rate {rate}"
        );
    }

    /// One `HostCpu` lent to two sessions in turn is one processor: the
    /// second session's symbol is shed when the first's filled the
    /// window.
    #[test]
    fn a_host_cpu_lent_to_two_cores_charges_one_horizon() {
        use crate::config::ProtocolConfig;
        use crate::engine::{Backlogs, EngineCore, Lent, Scratch, SourceMode};
        use crate::metrics::HostMetrics;
        use crate::reassembly::Partials;
        use crate::Event;
        use mcss_base::BufferPool;
        use mcss_codec::ShareKey;
        use rand::SeedableRng as _;
        use std::sync::Arc;

        // One symbol costs 10 µs and the host queues at most 10 µs ahead.
        let model = CpuModel {
            per_symbol_ns: 10_000.0,
            per_share_ns: 0.0,
            split_per_share_byte_ns: 0.0,
            recon_per_k2_byte_ns: 0.0,
            busy_window: SimTime::from_micros(10),
        };
        let (mut pool, mut partials, mut scratch) =
            (BufferPool::new(), Partials::default(), Scratch::default());
        let (key, backlogs) = (ShareKey::insecure_from_seed(1), Backlogs::default());
        let mut cpu = HostCpu::new(model);
        let metrics = Arc::new(HostMetrics::new(1));
        let config = Arc::new(ProtocolConfig::new(1.0, 1.0).unwrap());
        let mut cores: Vec<EngineCore> = (0..2)
            .map(|_| {
                EngineCore::new(
                    Arc::clone(&config),
                    1,
                    SourceMode::External,
                    Arc::clone(&metrics),
                )
                .unwrap()
            })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut shares = [0; 2];
        // Each core offers two symbols at t = 0, alternating: the first
        // core's first symbol takes the processor to 10 µs, its second to
        // 20 µs, and every symbol after that would start past the window.
        for (i, core) in [0, 0, 1, 1].into_iter().enumerate() {
            let lent = &mut Lent {
                pool: &mut pool,
                partials: &mut partials,
                prefix: &[],
                key: &key,
                stream: core,
                scratch: &mut scratch,
                backlogs: &backlogs,
                cpu: &mut cpu,
            };
            let payload = [i as u8; 16];
            cores[core as usize].handle(
                lent,
                SimTime::ZERO,
                Event::SymbolReady { payload: &payload },
                &mut rng,
            );
            while let Some(action) = cores[core as usize].poll_action() {
                if let crate::Action::SendShare { frame, .. } = action {
                    shares[core as usize] += 1;
                    pool.put(frame);
                }
            }
        }
        assert_eq!(shares, [2, 0], "the second core had a processor of its own");
        assert_eq!(cpu.shed(Endpoint::A), 2);
        assert_eq!(cpu.shed(Endpoint::B), 0);
        // The second core's symbols were offered, and shed unsent.
        let report = cores[1].report(SimTime::from_secs(1));
        assert_eq!((report.offered_symbols, report.sent_symbols), (2, 0));
    }
}
