//! End-to-end tests of the adaptive multiplicity loop: the protocol,
//! the feedback frames, and the controller acting together over the
//! simulated testbed.

#![cfg(feature = "sim")]

use mcss_core::{setups, Channel, ChannelSet};
use mcss_netsim::{Endpoint, LinkConfig, SimTime, Simulator};
use mcss_remicss::config::{ProtocolConfig, SchedulerKind};
use mcss_remicss::session::{Session, Workload};
use mcss_remicss::testbed;

fn very_lossy() -> ChannelSet {
    ChannelSet::new(
        (0..5)
            .map(|_| Channel::new(0.1, 0.25, 0.0, 50.0).unwrap())
            .collect(),
    )
    .unwrap()
}

#[test]
fn adaptation_requires_dynamic_scheduler() {
    let config = ProtocolConfig::new(1.0, 2.0)
        .unwrap()
        .with_scheduler(SchedulerKind::RoundRobin)
        .with_adaptive(0.01);
    assert!(Session::new(config, 5, Workload::cbr(100.0, SimTime::from_secs(1))).is_err());
}

#[test]
fn heavy_loss_drives_mu_up_and_recovers_delivery() {
    // 25% per-channel loss with kappa = 1: at mu = 1 the symbol loss is
    // 25%; at mu = 5 it is 0.25^5 ~ 0.1%. The controller must walk mu up.
    let channels = very_lossy();
    let config = ProtocolConfig::new(1.0, 1.0).unwrap().with_adaptive(0.01);
    let offered = 0.15 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(4);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 21);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    let final_mu = report.adaptive_final_mu.expect("adaptive enabled");
    assert!(
        final_mu > 3.0,
        "controller should have raised mu well above 1, got {final_mu}"
    );
    assert!(report.adaptive_adjustments > 0);
    // The smoothed loss estimate should have converged near the target
    // regime, far below the raw 25%.
    let est = sim.app().adaptive().unwrap().estimated_loss().unwrap();
    assert!(est < 0.10, "estimated loss still {est}");
}

#[test]
fn clean_network_decays_mu_toward_kappa() {
    let channels = setups::identical(100.0);
    let config = ProtocolConfig::new(1.0, 4.0).unwrap().with_adaptive(0.05);
    let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(4);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 22);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    let final_mu = report.adaptive_final_mu.unwrap();
    assert!(
        final_mu < 1.5,
        "clean channels should reclaim rate: mu = {final_mu}"
    );
}

#[test]
fn adaptation_reacts_to_midrun_degradation() {
    // Channels start clean; at t = 2 s every channel turns 30% lossy.
    let channels = setups::identical(50.0);
    let config = ProtocolConfig::new(1.0, 1.0).unwrap().with_adaptive(0.02);
    let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(6);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 23);

    sim.run_until(SimTime::from_secs(2));
    let mu_before = sim.app().adaptive().unwrap().mu();
    assert!(
        mu_before < 1.5,
        "clean start should keep mu low: {mu_before}"
    );

    for ch in 0..5 {
        for ep in [Endpoint::A, Endpoint::B] {
            sim.network_mut()
                .reconfigure(ch, ep, LinkConfig::new(50e6).with_loss(0.30));
        }
    }
    sim.run_until(window + SimTime::from_secs(1));
    let mu_after = sim.app().adaptive().unwrap().mu();
    assert!(
        mu_after > mu_before + 1.0,
        "controller should react to degradation: {mu_before} -> {mu_after}"
    );
}

#[test]
fn without_adaptation_mu_is_static() {
    let channels = very_lossy();
    let config = ProtocolConfig::new(1.0, 1.0).unwrap();
    let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(1);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 24);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    assert_eq!(report.adaptive_final_mu, None);
    assert_eq!(report.adaptive_adjustments, 0);
    // Loss stays at the raw per-channel rate (~25%).
    assert!(report.loss_fraction > 0.15);
}

#[test]
fn lossless_delayed_links_keep_mu() {
    // Lossless links whose one-way delays differ by up to 12 ms: a
    // symbol still in flight when B reports is not a lost one, so the
    // controller never sees loss and never raises mu.
    let channels = setups::delayed();
    let config = ProtocolConfig::new(1.0, 1.0).unwrap().with_adaptive(0.01);
    let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(1);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 7);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    assert_eq!(report.loss_fraction, 0.0);
    assert_eq!(report.adaptive_final_mu, Some(1.0));
    assert_eq!(report.adaptive_adjustments, 0);
}

#[test]
fn lossless_long_paths_keep_mu() {
    // Five lossless links with a 100-ms one-way delay, two feedback
    // periods: B's first reports leave before any symbol has arrived, so
    // they carry nothing and must not read as a stall that counts every
    // symbol in flight as lost.
    let channels = ChannelSet::new(
        (0..5)
            .map(|_| Channel::new(0.1, 0.0, 0.1, 50.0).unwrap())
            .collect(),
    )
    .unwrap();
    let config = ProtocolConfig::new(1.0, 1.0).unwrap().with_adaptive(0.01);
    let offered = 0.2 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(3);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 7);
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    assert_eq!(report.loss_fraction, 0.0);
    assert_eq!(report.adaptive_adjustments, 0);
    assert_eq!(report.adaptive_final_mu, Some(1.0));
}

#[test]
fn a_dead_first_channel_raises_mu_and_delivery_recovers() {
    // At a low rate every backlog is empty when a symbol leaves, so at
    // mu = 1 the dynamic schedule sends every symbol on channel 0 alone.
    // At t = 1 s that channel stops delivering anything from A: B then
    // reconstructs nothing at all, and the controller must read that
    // silence as loss and spread shares onto the live channels.
    let channels = setups::identical(50.0);
    let config = ProtocolConfig::new(1.0, 1.0).unwrap().with_adaptive(0.02);
    let offered = 0.05 * testbed::optimal_symbol_rate(&channels, &config).unwrap();
    let window = SimTime::from_secs(4);
    let net = testbed::network_for(&channels, &config);
    let session = Session::new(config.clone(), 5, Workload::cbr(offered, window)).unwrap();
    let mut sim = Simulator::new(net, session, 25);

    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.app().adaptive().unwrap().mu(), 1.0);
    // Frames still arrive, an hour late: the channel is a black hole
    // whose backlog stays empty.
    sim.network_mut().reconfigure(
        0,
        Endpoint::A,
        LinkConfig::new(50e6).with_delay(SimTime::from_secs(3600)),
    );
    sim.run_until(window + SimTime::from_secs(1));
    let report = sim.app().report(window);
    let final_mu = report.adaptive_final_mu.unwrap();
    assert!(final_mu > 1.5, "mu stayed at {final_mu} on a dead channel");
    // Stuck at mu = 1 the session would lose the last three quarters.
    assert!(
        report.loss_fraction < 0.2,
        "delivery did not recover: loss {}",
        report.loss_fraction
    );
}
