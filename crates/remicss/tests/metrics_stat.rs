//! Statistical check on [`HostMetrics`]: the empirical `(κ, μ)`
//! recovered from the realized `(k, m)` frequency matrix must converge
//! to the configured protocol parameters — the telemetry layer reports
//! what the scheduler actually does, for one session and for a fleet
//! whose hosts pool their sessions' draws.

#![cfg(feature = "sim")]

use std::sync::Arc;

use mcss_base::BufferPool;
use mcss_codec::ShareKey;
use mcss_netsim::SimTime;
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::engine::{Backlogs, EngineCore, Lent, Scratch, SourceMode};
use mcss_remicss::reassembly::Partials;
use mcss_remicss::scheduler::{ChannelState, DynamicScheduler, Scheduler as _};
use mcss_remicss::{HostMetrics, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SYMBOLS: u64 = 100_000;

/// Drives the dynamic scheduler for 100k symbols on all-ready channels
/// and checks the metrics-side empirical means against the configuration.
fn check_convergence(kappa: f64, mu: f64, n: usize, seed: u64) {
    let mut sched = DynamicScheduler::new(kappa, mu, n).expect("valid (kappa, mu)");
    let metrics = HostMetrics::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let backlogs = vec![SimTime::ZERO; n];
    let state = ChannelState::new(&backlogs, SimTime::from_millis(1));
    let mut choice = Default::default();
    for _ in 0..SYMBOLS {
        sched.choose_into(&state, &mut rng, &mut choice);
        metrics.record_choice(choice.k, choice.channels.len());
    }
    assert_converged(&metrics, kappa, mu, SYMBOLS);
}

/// `metrics` holds `draws` draws whose means are within 1 % of
/// `(kappa, mu)`, and its `(k, m)` matrix agrees with them.
fn assert_converged(metrics: &HostMetrics, kappa: f64, mu: f64, draws: u64) {
    let n = metrics.channel_count();
    assert_eq!(metrics.choices(), draws);
    let ek = metrics.empirical_kappa();
    let em = metrics.empirical_mu();
    assert!(
        (ek - kappa).abs() / kappa < 0.01,
        "empirical kappa {ek} vs configured {kappa} (n={n})"
    );
    assert!(
        (em - mu).abs() / mu < 0.01,
        "empirical mu {em} vs configured {mu} (n={n})"
    );
    // The frequency matrix and the means must agree: the means are
    // exactly the matrix's marginal expectations.
    let (mut sum_k, mut sum_m, mut total) = (0u64, 0u64, 0u64);
    for k in 0..=n {
        for m in 0..=n {
            let c = metrics.km_count(k, m);
            sum_k += c * k as u64;
            sum_m += c * m as u64;
            total += c;
        }
    }
    assert_eq!(total, draws, "every draw lands in the (k, m) matrix");
    assert!((sum_k as f64 / total as f64 - ek).abs() < 1e-9);
    assert!((sum_m as f64 / total as f64 - em).abs() < 1e-9);
}

#[test]
fn fractional_parameters_converge_within_one_percent() {
    // Fractional (κ, μ): every draw rounds up or down, so convergence
    // genuinely exercises the sampler's randomization.
    check_convergence(2.4, 3.3, 5, 11);
}

#[test]
fn integral_parameters_are_exact() {
    // Integral (κ, μ) leave the sampler nothing to randomize: the
    // empirical means are exact, and a single matrix cell holds
    // every draw.
    let n = 5;
    let metrics = HostMetrics::new(n);
    let mut sched = DynamicScheduler::new(2.0, 3.0, n).expect("valid");
    let mut rng = StdRng::seed_from_u64(7);
    let backlogs = vec![SimTime::ZERO; n];
    let state = ChannelState::new(&backlogs, SimTime::from_millis(1));
    let mut choice = Default::default();
    for _ in 0..10_000u64 {
        sched.choose_into(&state, &mut rng, &mut choice);
        metrics.record_choice(choice.k, choice.channels.len());
    }
    assert_eq!(metrics.empirical_kappa(), 2.0);
    assert_eq!(metrics.empirical_mu(), 3.0);
    assert_eq!(metrics.km_count(2, 3), 10_000);
}

#[test]
fn near_boundary_parameters_converge() {
    // μ close to n stresses the "all channels" end of the sampler.
    check_convergence(1.2, 4.8, 5, 23);
}

/// A fleet of 16 sessions hosted on two shards, as a server hosts them:
/// every engine records its draws into its shard's one set and is lent
/// its shard's one scratch. Each shard's draws, and the two sets merged,
/// converge as one session's do.
#[test]
fn a_hosted_fleet_converges_within_one_percent() {
    const SHARDS: usize = 2;
    const SESSIONS: usize = 16;
    let (kappa, mu, n) = (2.4, 3.3, 5);
    let config = Arc::new(
        ProtocolConfig::new(kappa, mu)
            .expect("valid (kappa, mu)")
            .with_symbol_bytes(16),
    );
    let key = ShareKey::insecure_from_seed(1);
    let mut shards: Vec<(Arc<HostMetrics>, BufferPool, Partials, Scratch)> = (0..SHARDS)
        .map(|_| {
            let metrics = Arc::new(HostMetrics::new(n));
            (
                metrics,
                BufferPool::new(),
                Partials::default(),
                Scratch::default(),
            )
        })
        .collect();
    let mut sessions: Vec<(EngineCore, StdRng)> = (0..SESSIONS)
        .map(|cid| {
            let metrics = Arc::clone(&shards[cid % SHARDS].0);
            let engine = EngineCore::new(Arc::clone(&config), n, SourceMode::External, metrics)
                .expect("valid config");
            (engine, StdRng::seed_from_u64(cid as u64))
        })
        .collect();
    let payload = [0x3cu8; 16];
    let backlogs = Backlogs::default();
    for symbol in 0..SYMBOLS {
        let cid = symbol as usize % SESSIONS;
        let (engine, rng) = &mut sessions[cid];
        let (_, pool, partials, scratch) = &mut shards[cid % SHARDS];
        let lent = &mut Lent {
            pool,
            partials,
            prefix: &[],
            key: &key,
            stream: cid as u32,
            scratch,
            backlogs: &backlogs,
        };
        let now = SimTime::from_micros(symbol);
        if symbol < SESSIONS as u64 {
            engine.handle(lent, now, Event::Started, rng);
        }
        engine.handle(lent, now, Event::SymbolReady { payload: &payload }, rng);
        while let Some(action) = engine.poll_action() {
            if let Action::SendShare { channel, frame, .. } = action {
                engine.share_send_ok(channel);
                lent.pool.put(frame);
            }
        }
    }
    let fleet = HostMetrics::new(n);
    for (metrics, ..) in &shards {
        assert_converged(metrics, kappa, mu, SYMBOLS / SHARDS as u64);
        fleet.absorb(metrics);
    }
    assert_converged(&fleet, kappa, mu, SYMBOLS);
    let sent: u64 = sessions
        .iter()
        .map(|(engine, _)| engine.report(SimTime::from_secs(1)).sent_symbols)
        .sum();
    assert_eq!(sent, SYMBOLS);
}

/// The per-channel delay estimator: on each channel
/// `delay_sum_nanos / shares_received` is the mean of the very samples
/// the channel's delay histogram holds,
/// and over the Delayed setup it recovers each channel's configured
/// one-way delay plus the share's serialization time (and, at 0.3 of
/// the optimal rate, a little queueing).
#[test]
fn per_channel_delay_sum_recovers_the_channel_delay() {
    use mcss_remicss::{testbed, Session, Workload};

    let channels = mcss_core::setups::delayed();
    let config = ProtocolConfig::new(2.0, 3.0).expect("valid (kappa, mu)");
    let rate = 0.3 * testbed::optimal_symbol_rate(&channels, &config).expect("mu fits");
    let horizon = SimTime::from_secs(1);
    let network = testbed::network_for(&channels, &config);
    let wire_bits = (config.share_wire_bytes() * 8) as f64;
    let session =
        Session::new(config, channels.len(), Workload::cbr(rate, horizon)).expect("valid");
    let mut sim = mcss_netsim::Simulator::new(network, session, 42);
    sim.run_until(SimTime::from_secs(2));

    let metrics = sim.app().metrics();
    let mut received = 0;
    for (i, channel) in channels.iter().enumerate() {
        let counters = metrics.channel(i);
        let histogram = &counters.one_way_delay;
        let shares = counters.shares_received.get();
        assert_eq!(shares, histogram.count(), "channel {i}");
        if shares == 0 {
            continue;
        }
        received += shares;
        let mean = counters.delay_sum_nanos.get() as f64 / shares as f64;
        assert_eq!(mean, histogram.mean(), "channel {i}");
        let expected = (channel.delay() + wire_bits / (channel.rate() * 1e6)) * 1e9;
        assert!(
            mean >= expected - 1.0 && mean <= expected + 1e6,
            "channel {i}: mean delay {mean} ns, delay + serialization {expected} ns"
        );
    }
    assert!(received > 1_000, "only {received} shares delivered");
}
