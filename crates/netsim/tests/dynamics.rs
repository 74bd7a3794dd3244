//! Dynamic network behaviour: delay jitter and mid-run reconfiguration.

use mcss_base::stats::DelaySummary;
use mcss_netsim::{
    Application, ChannelId, Context, Endpoint, LinkConfig, NetworkBuilder, SimTime, Simulator,
};

/// Paced one-channel sender that records per-frame latency at B.
struct Probe {
    latency: DelaySummary,
    sent: u64,
    received: u64,
    period: SimTime,
    until: SimTime,
}

impl Probe {
    fn new(period: SimTime, until: SimTime) -> Self {
        Probe {
            latency: DelaySummary::new(),
            sent: 0,
            received: 0,
            period,
            until,
        }
    }
}

impl Application for Probe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimTime::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
        if ctx.now() >= self.until {
            return;
        }
        let mut payload = vec![0u8; 100];
        payload[..8].copy_from_slice(&ctx.now().as_nanos().to_be_bytes());
        let _ = ctx.send(0, Endpoint::A, payload);
        self.sent += 1;
        let next = ctx.now() + self.period;
        ctx.set_timer(next, 0);
    }
    fn on_deliver(&mut self, ctx: &mut Context<'_>, _c: ChannelId, to: Endpoint, frame: Vec<u8>) {
        if to == Endpoint::B {
            let sent = u64::from_be_bytes(frame[..8].try_into().unwrap());
            self.latency.record(ctx.now() - SimTime::from_nanos(sent));
            self.received += 1;
        }
    }
}

#[test]
fn jitter_spreads_delay_around_mean() {
    let mut b = NetworkBuilder::new();
    b.channel(
        LinkConfig::new(1e9)
            .with_delay(SimTime::from_millis(10))
            .with_jitter(SimTime::from_millis(2)),
    );
    let probe = Probe::new(SimTime::from_micros(100), SimTime::from_millis(500));
    let mut sim = Simulator::new(b.build(), probe, 42);
    sim.run_until(SimTime::from_secs(1));
    let app = sim.app();
    assert!(app.latency.count() > 4000);
    let mean = app.latency.mean().unwrap();
    let min = app.latency.min().unwrap();
    let max = app.latency.max().unwrap();
    // Mean near 10 ms; extremes near 8 and 12 ms (+ tiny serialization).
    assert!(
        mean >= SimTime::from_micros(9800) && mean <= SimTime::from_micros(10_200),
        "mean {mean}"
    );
    assert!(min < SimTime::from_micros(8300), "min {min}");
    assert!(max > SimTime::from_micros(11_700), "max {max}");
    assert!(
        min >= SimTime::from_millis(8),
        "min below jitter floor: {min}"
    );
}

#[test]
fn zero_jitter_is_deterministic_delay() {
    let mut b = NetworkBuilder::new();
    b.channel(LinkConfig::new(1e9).with_delay(SimTime::from_millis(5)));
    let probe = Probe::new(SimTime::from_millis(1), SimTime::from_millis(100));
    let mut sim = Simulator::new(b.build(), probe, 1);
    sim.run_until(SimTime::from_millis(200));
    let app = sim.app();
    let spread = app.latency.max().unwrap() - app.latency.min().unwrap();
    assert!(spread < SimTime::from_nanos(1000), "spread {spread}");
}

#[test]
fn jitter_can_reorder_frames() {
    // Two frames sent 1 µs apart with ±5 ms jitter will reorder with
    // overwhelming probability over many trials; we assert at least one
    // out-of-order delivery is observed.
    struct Order {
        sent: u64,
        deliveries: Vec<u64>,
    }
    impl Application for Order {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimTime::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
            if self.sent >= 200 {
                return;
            }
            let mut payload = vec![0u8; 16];
            payload[..8].copy_from_slice(&self.sent.to_be_bytes());
            self.sent += 1;
            let _ = ctx.send(0, Endpoint::A, payload);
            let next = ctx.now() + SimTime::from_micros(1);
            ctx.set_timer(next, 0);
        }
        fn on_deliver(
            &mut self,
            _ctx: &mut Context<'_>,
            _c: ChannelId,
            to: Endpoint,
            frame: Vec<u8>,
        ) {
            if to == Endpoint::B {
                self.deliveries
                    .push(u64::from_be_bytes(frame[..8].try_into().unwrap()));
            }
        }
    }
    let mut b = NetworkBuilder::new();
    b.channel(
        LinkConfig::new(1e9)
            .with_delay(SimTime::from_millis(10))
            .with_jitter(SimTime::from_millis(5)),
    );
    let mut sim = Simulator::new(
        b.build(),
        Order {
            sent: 0,
            deliveries: Vec::new(),
        },
        7,
    );
    sim.run_until(SimTime::from_secs(1));
    let d = &sim.app().deliveries;
    assert_eq!(d.len(), 200);
    assert!(
        d.windows(2).any(|w| w[0] > w[1]),
        "expected at least one reordering"
    );
}

#[test]
fn reconfigure_changes_rate_mid_run() {
    // 10 Mbit/s for the first half, 1 Mbit/s for the second: delivered
    // bits should reflect both regimes.
    let mut b = NetworkBuilder::new();
    // A short queue keeps the already-admitted backlog small at the
    // moment of reconfiguration (frames in flight keep their old fate).
    let short_queue = SimTime::from_millis(5);
    b.channel(LinkConfig::new(10e6).with_queue_limit(short_queue));
    let probe = Probe::new(SimTime::from_micros(50), SimTime::from_secs(2)); // 16 Mbit/s offered
    let mut sim = Simulator::new(b.build(), probe, 3);
    sim.run_until(SimTime::from_secs(1));
    let first_half = sim.network().channel(0).forward().stats().delivered_bits;
    sim.network_mut().reconfigure(
        0,
        Endpoint::A,
        LinkConfig::new(1e6).with_queue_limit(short_queue),
    );
    sim.run_until(SimTime::from_secs(2));
    let total = sim.network().channel(0).forward().stats().delivered_bits;
    let second_half = total - first_half;
    let f = first_half as f64;
    let s = second_half as f64;
    assert!((f - 10e6).abs() / 10e6 < 0.05, "first half {f}");
    assert!((s - 1e6).abs() / 1e6 < 0.2, "second half {s}");
}

#[test]
fn reconfigure_injects_loss_mid_run() {
    let mut b = NetworkBuilder::new();
    b.channel(LinkConfig::new(1e9));
    let probe = Probe::new(SimTime::from_micros(100), SimTime::from_secs(2));
    let mut sim = Simulator::new(b.build(), probe, 11);
    sim.run_until(SimTime::from_secs(1));
    let lost_before = sim.network().channel(0).forward().stats().lost_frames;
    assert_eq!(lost_before, 0);
    sim.network_mut()
        .reconfigure(0, Endpoint::A, LinkConfig::new(1e9).with_loss(0.5));
    sim.run_until(SimTime::from_secs(3));
    let stats = *sim.network().channel(0).forward().stats();
    // Second half: ~10_000 frames at 50% loss.
    assert!(
        stats.lost_frames > 4000 && stats.lost_frames < 6000,
        "lost {}",
        stats.lost_frames
    );
    assert_eq!(sim.app().received + stats.lost_frames, sim.app().sent);
}

#[test]
fn reconfigure_only_touches_one_direction() {
    let mut b = NetworkBuilder::new();
    b.channel(LinkConfig::new(10e6));
    let mut sim = Simulator::new(
        b.build(),
        Probe::new(SimTime::from_millis(1), SimTime::ZERO),
        1,
    );
    sim.network_mut()
        .reconfigure(0, Endpoint::A, LinkConfig::new(1e6));
    assert_eq!(sim.network().channel(0).forward().config().rate_bps(), 1e6);
    assert_eq!(
        sim.network().channel(0).backward().config().rate_bps(),
        10e6
    );
}
