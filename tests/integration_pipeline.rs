//! The full operator pipeline, closed loop: **calibrate** a network you
//! supposedly know nothing about, **optimize** a schedule from the
//! measured channels, **run** the protocol with it, and check the
//! predictions held. Plus robustness of the whole stack under jitter
//! and reordering.

use mcss::netsim::{LinkConfig, NetworkBuilder, SimTime, Simulator};
use mcss::prelude::*;

/// Calibration on a ground-truth network recovers channels accurate
/// enough that LP schedules computed from the *measured* set predict
/// the behaviour of the *true* network.
#[test]
fn calibrate_optimize_run_closed_loop() {
    let truth = setups::lossy();
    let config = ProtocolConfig::new(2.0, 3.0).unwrap();

    // 1. Calibrate: measure the channels with probe traffic only.
    let measured = testbed::calibrate(
        || testbed::network_for(&truth, &config),
        &[0.1; 5],
        SimTime::from_secs(2),
        4242,
    )
    .unwrap();

    // 2. Optimize: loss-optimal max-rate schedule from measured channels.
    let measured_shares = testbed::share_rate_channels(&measured, &config).unwrap();
    let schedule =
        lp_schedule::optimal_schedule_at_max_rate(&measured_shares, 2.0, 3.0, Objective::Loss)
            .unwrap();
    let predicted_loss = schedule.loss(&measured_shares);
    let predicted_rate = schedule.max_symbol_rate(&measured_shares);

    // 3. Run on the *true* network with the measured-channel schedule.
    let run_config = config
        .clone()
        .with_scheduler(SchedulerKind::Static(std::sync::Arc::new(schedule)));
    let window = SimTime::from_secs(2);
    let offered = 0.9 * predicted_rate;
    let session = Session::new(run_config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let net = testbed::network_for(&truth, &run_config);
    let mut sim = Simulator::new(net, session, 777);
    sim.run_until(window + SimTime::from_secs(2));
    let report = sim.app().report(window);

    // 4. Predictions hold on the real network.
    assert!(
        (report.loss_fraction - predicted_loss).abs() < 0.015,
        "measured loss {} vs predicted {predicted_loss}",
        report.loss_fraction
    );
    let true_shares = testbed::share_rate_channels(&truth, &config).unwrap();
    let true_optimal = mcss::model::optimal::optimal_rate(&true_shares, 3.0).unwrap();
    assert!(
        (predicted_rate - true_optimal).abs() / true_optimal < 0.05,
        "calibrated rate prediction {predicted_rate} vs true optimum {true_optimal}"
    );
    assert!(report.achieved_symbol_rate > 0.85 * offered);
}

/// Jittered channels reorder shares aggressively; the protocol must
/// still deliver verified symbols with loss governed by the subset
/// formula, not by reordering.
#[test]
fn protocol_tolerates_jitter_reordering() {
    // Build a jittery network by hand (the model has no jitter notion —
    // delay d is the mean, which is what the subset formulas consume).
    let mk_net = || {
        let mut b = NetworkBuilder::new();
        for _ in 0..4 {
            b.channel(
                LinkConfig::new(20e6)
                    .with_delay(SimTime::from_millis(5))
                    .with_jitter(SimTime::from_millis(4)),
            );
        }
        b.build()
    };
    let config = ProtocolConfig::new(2.0, 3.0)
        .unwrap()
        .with_reassembly_timeout(SimTime::from_millis(300));
    // 4 channels at 20 Mbit/s; share wire = 1274 B. Offer conservatively.
    let offered = 2000.0;
    let window = SimTime::from_secs(1);
    let session = Session::new(config, 4, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(mk_net(), session, 31);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    assert_eq!(report.corrupted_symbols, 0, "reordering corrupted symbols");
    assert_eq!(report.wire_errors, 0);
    assert!(
        report.loss_fraction < 1e-3,
        "lossless jittery channels still lost {}",
        report.loss_fraction
    );
    // Delay spread shows the jitter passed through to symbol latency.
    assert!(report.mean_one_way_delay.unwrap() >= SimTime::from_millis(3));
}

/// The correlated-adversary model composes with protocol schedules: a
/// schedule tuned for independent risks underestimates exposure when
/// channels actually share an edge — measurable end to end.
#[test]
fn correlated_adversary_end_to_end() {
    use mcss::model::adversary::JointRisk;
    use rand::RngExt as _;
    use rand::SeedableRng;
    let channels = setups::diverse_with_risk(&[0.25; 5]);
    let schedule =
        lp_schedule::optimal_schedule_at_max_rate(&channels, 2.0, 3.0, Objective::Privacy).unwrap();
    let independent_z = schedule.risk(&channels);
    let joint = JointRisk::shared_edges(&channels, &[vec![0, 1, 2]]).unwrap();
    let correlated_z = joint.schedule_risk(&schedule);
    assert!(correlated_z > independent_z);

    // Monte-Carlo the correlated game to confirm the analytic value.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let trials = 200_000u32;
    let mut hits = 0u32;
    for _ in 0..trials {
        let e = schedule.sample(&mut rng);
        // Taps: the edge unit {0,1,2} with p = 0.25, channels 3 and 4
        // independently with p = 0.25.
        let mut observed = 0usize;
        let edge_tapped = rng.random_bool(0.25);
        for i in e.subset().iter() {
            let tapped = if i <= 2 {
                edge_tapped
            } else {
                rng.random_bool(0.25)
            };
            if tapped {
                observed += 1;
            }
        }
        if observed >= e.k() as usize {
            hits += 1;
        }
    }
    let empirical = f64::from(hits) / f64::from(trials);
    let sigma = (correlated_z * (1.0 - correlated_z) / f64::from(trials)).sqrt();
    assert!(
        (empirical - correlated_z).abs() < 5.0 * sigma + 1e-4,
        "empirical {empirical} vs analytic {correlated_z}"
    );
}
