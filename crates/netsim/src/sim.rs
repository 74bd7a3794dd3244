//! The event loop: a deterministic discrete-event simulator over a
//! two-host [`Network`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::frame::Frame;
use crate::link::{Admit, SendOutcome};
use crate::network::{ChannelId, Endpoint, Network};
use crate::queue::{EventQueue, QueueKind};
use crate::trace::{Trace, TraceKind};
use crate::SimTime;

/// Application logic plugged into a [`Simulator`].
///
/// All methods have empty defaults so implementations only handle the
/// events they care about. Implementations drive everything through the
/// [`Context`]: sending frames, reading channel state, and arming timers.
pub trait Application {
    /// Called once, at time zero, before any event is processed.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called when a frame arrives at endpoint `to` over `channel`.
    fn on_deliver(
        &mut self,
        ctx: &mut Context<'_>,
        channel: ChannelId,
        to: Endpoint,
        frame: Frame,
    ) {
        let _ = (ctx, channel, to, frame);
    }

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        channel: ChannelId,
        to: Endpoint,
        sent_at: SimTime,
        frame: Frame,
    },
    Timer {
        token: u64,
    },
}

/// The application's handle to the simulation during a callback.
///
/// Provides the current time, frame transmission, channel introspection
/// (backlog/writability — the simulator's `epoll` equivalent), timers,
/// and the simulation's seeded RNG.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    network: &'a mut Network,
    queue: &'a mut EventQueue<EventKind>,
    seq: &'a mut u64,
    rng: &'a mut StdRng,
    trace: &'a mut Option<Trace>,
    lost: &'a mut Vec<Vec<u8>>,
}

impl Context<'_> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of channels in the network.
    #[must_use]
    pub fn num_channels(&self) -> usize {
        self.network.len()
    }

    /// Sends `frame` from endpoint `from` over `channel`.
    ///
    /// Returns [`SendOutcome::Dropped`] if the local queue is full;
    /// random in-flight loss does *not* show in the outcome (only as an
    /// emptied buffer from [`take_lost`](Context::take_lost)).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn send(&mut self, channel: ChannelId, from: Endpoint, frame: Frame) -> SendOutcome {
        match self.try_send(channel, from, frame) {
            Ok(()) => SendOutcome::Queued,
            Err(_rejected) => SendOutcome::Dropped,
        }
    }

    /// Like [`send`](Context::send), but hands the frame back on a
    /// local queue drop so a pooled payload buffer can be recycled
    /// instead of freed.
    ///
    /// Only *locally observable* rejection returns the frame: on random
    /// in-flight loss the call succeeds, exactly as a real socket write
    /// succeeds on frames the network later loses, and the frame's
    /// buffer comes back emptied through
    /// [`take_lost`](Context::take_lost), which does not say which frame
    /// it carried. `Err` therefore reveals nothing
    /// [`send`](Context::send) doesn't.
    ///
    /// # Errors
    ///
    /// Returns the frame if the local queue is full
    /// ([`SendOutcome::Dropped`]).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn try_send(
        &mut self,
        channel: ChannelId,
        from: Endpoint,
        frame: Frame,
    ) -> Result<(), Frame> {
        let bytes = frame.len();
        let link = self.network.channel_mut(channel).link_from(from);
        let result = match link.admit(self.now, &frame, self.rng) {
            Admit::Dropped => Err(frame),
            Admit::Lost => {
                let mut buf = frame.into_vec();
                buf.clear();
                self.lost.push(buf);
                Ok(())
            }
            Admit::Deliver { at } => {
                let seq = *self.seq;
                *self.seq += 1;
                self.queue.push(
                    at,
                    seq,
                    EventKind::Deliver {
                        channel,
                        to: from.peer(),
                        sent_at: self.now,
                        frame,
                    },
                );
                Ok(())
            }
        };
        if let Some(trace) = self.trace.as_mut() {
            let outcome = match &result {
                Ok(()) => SendOutcome::Queued,
                Err(_) => SendOutcome::Dropped,
            };
            trace.record(
                self.now,
                TraceKind::Send {
                    channel,
                    from,
                    bytes,
                    outcome,
                },
            );
        }
        result
    }

    /// Takes back the buffer of a frame a link lost in flight during this
    /// callback, so a pooled payload buffer can be recycled instead of
    /// freed. The buffer is empty: like a real network, the simulator
    /// does not tell the sender which frame it lost. Buffers not taken
    /// before the callback returns are freed.
    pub fn take_lost(&mut self) -> Option<Vec<u8>> {
        self.lost.pop()
    }

    /// Serialization backlog of `channel` in the direction out of `from`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn backlog(&self, channel: ChannelId, from: Endpoint) -> SimTime {
        self.network
            .channel(channel)
            .link_from_ref(from)
            .backlog(self.now)
    }

    /// Whether `channel` is ready for writing from `from`: its backlog is
    /// at most `threshold`. This is the simulator's equivalent of
    /// `epoll` writability, which the ReMICSS dynamic share schedule
    /// relies on.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    #[must_use]
    pub fn is_writable(&self, channel: ChannelId, from: Endpoint, threshold: SimTime) -> bool {
        self.backlog(channel, from) <= threshold
    }

    /// Arms a timer to fire at absolute time `at` (clamped to now if in
    /// the past) with an application-defined token.
    pub fn set_timer(&mut self, at: SimTime, token: u64) {
        let seq = *self.seq;
        *self.seq += 1;
        self.queue
            .push(at.max(self.now), seq, EventKind::Timer { token });
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// A deterministic discrete-event simulator joining a [`Network`] and an
/// [`Application`].
///
/// See the [crate docs](crate) for a complete example.
#[derive(Debug)]
pub struct Simulator<A> {
    now: SimTime,
    network: Network,
    app: A,
    queue: EventQueue<EventKind>,
    seq: u64,
    events: u64,
    rng: StdRng,
    trace: Option<Trace>,
    /// Buffers of the frames lost during the current callback
    /// ([`Context::take_lost`]); emptied after every callback.
    lost: Vec<Vec<u8>>,
}

impl<A: Application> Simulator<A> {
    /// Creates a simulator and immediately runs the application's
    /// [`on_start`](Application::on_start) hook at time zero.
    ///
    /// Uses the default timer-wheel event queue; the same
    /// `(network, app, seed)` triple always produces the same trace,
    /// whichever [`QueueKind`] runs it (see [`crate::queue`]).
    pub fn new(network: Network, app: A, seed: u64) -> Self {
        Simulator::with_queue_kind(network, app, seed, QueueKind::default())
    }

    /// Like [`new`](Simulator::new) with an explicit event-queue
    /// backend, for pinning the wheel against the reference heap.
    pub fn with_queue_kind(network: Network, app: A, seed: u64, kind: QueueKind) -> Self {
        let mut sim = Simulator {
            now: SimTime::ZERO,
            network,
            app,
            queue: EventQueue::new(kind),
            seq: 0,
            events: 0,
            rng: StdRng::seed_from_u64(seed),
            trace: None,
            lost: Vec::new(),
        };
        let mut ctx = Context {
            now: sim.now,
            network: &mut sim.network,
            queue: &mut sim.queue,
            seq: &mut sim.seq,
            rng: &mut sim.rng,
            trace: &mut sim.trace,
            lost: &mut sim.lost,
        };
        sim.app.on_start(&mut ctx);
        sim.lost.clear();
        sim
    }

    /// Turns on event tracing with a bounded ring buffer of `capacity`
    /// events (see [`trace`](crate::trace)). Tracing costs a few
    /// nanoseconds per event; leave it off for large sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero. A zero-capacity trace would
    /// silently record nothing while appearing enabled (`trace()`
    /// returning `Some`), so it is rejected loudly instead of being a
    /// no-op.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert!(
            capacity > 0,
            "enable_trace(0): a zero-capacity trace records nothing; \
             pass a positive capacity or leave tracing off"
        );
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The network (for reading link statistics).
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network, for mid-run reconfiguration via
    /// [`Network::reconfigure`].
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// The application.
    #[must_use]
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the application (e.g. to extract results).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// Number of events processed so far (deliveries + timer firings).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Processes the next event, if any. Returns `false` when the event
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let _span = mcss_obs::span!("netsim.step");
        let Some((at, _seq, kind)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.events += 1;
        match kind {
            EventKind::Deliver {
                channel,
                to,
                sent_at,
                frame,
            } => {
                self.network
                    .channel_mut(channel)
                    .link_from(to.peer())
                    .record_delivery(sent_at, at, &frame);
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(
                        self.now,
                        TraceKind::Deliver {
                            channel,
                            to,
                            bytes: frame.len(),
                        },
                    );
                }
                let mut ctx = Context {
                    now: self.now,
                    network: &mut self.network,
                    queue: &mut self.queue,
                    seq: &mut self.seq,
                    rng: &mut self.rng,
                    trace: &mut self.trace,
                    lost: &mut self.lost,
                };
                self.app.on_deliver(&mut ctx, channel, to, frame);
            }
            EventKind::Timer { token } => {
                if let Some(trace) = self.trace.as_mut() {
                    trace.record(self.now, TraceKind::Timer { token });
                }
                let mut ctx = Context {
                    now: self.now,
                    network: &mut self.network,
                    queue: &mut self.queue,
                    seq: &mut self.seq,
                    rng: &mut self.rng,
                    trace: &mut self.trace,
                    lost: &mut self.lost,
                };
                self.app.on_timer(&mut ctx, token);
            }
        }
        self.lost.clear();
        true
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.next_at() {
            if at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until the event queue is empty.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::network::NetworkBuilder;

    /// Records everything it sees, for assertions.
    #[derive(Default)]
    struct Recorder {
        delivered: Vec<(SimTime, ChannelId, Endpoint, usize)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl Application for Recorder {
        fn on_deliver(
            &mut self,
            ctx: &mut Context<'_>,
            channel: ChannelId,
            to: Endpoint,
            frame: Frame,
        ) {
            self.delivered.push((ctx.now(), channel, to, frame.len()));
        }

        fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
            self.timers.push((ctx.now(), token));
        }
    }

    fn one_channel(rate: f64) -> Network {
        let mut b = NetworkBuilder::new();
        b.channel(LinkConfig::new(rate));
        b.build()
    }

    /// App that sends one frame from A at start.
    struct SendOnce(Recorder);
    impl Application for SendOnce {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let out = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 125]));
            assert_eq!(out, SendOutcome::Queued);
        }
        fn on_deliver(
            &mut self,
            ctx: &mut Context<'_>,
            channel: ChannelId,
            to: Endpoint,
            frame: Frame,
        ) {
            self.0.on_deliver(ctx, channel, to, frame);
        }
    }

    /// Pins the documented `enable_trace(0)` contract: loud rejection,
    /// not a silently-enabled trace that records nothing.
    #[test]
    #[should_panic(expected = "enable_trace(0)")]
    fn enable_trace_zero_capacity_panics() {
        let mut sim = Simulator::new(one_channel(1e6), Recorder::default(), 0);
        sim.enable_trace(0);
    }

    #[test]
    fn single_frame_delivery_time() {
        // 1000 bits at 1 Mbit/s = 1 ms serialization, no delay.
        let mut sim = Simulator::new(one_channel(1e6), SendOnce(Recorder::default()), 0);
        sim.run_to_completion();
        assert_eq!(
            sim.app().0.delivered,
            vec![(SimTime::from_millis(1), 0, Endpoint::B, 125)]
        );
        let stats = *sim.network().channel(0).forward().stats();
        assert_eq!(stats.delivered_frames, 1);
        assert_eq!(stats.delivered_bits, 1000);
        assert_eq!(stats.mean_latency(), Some(SimTime::from_millis(1)));
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers(Recorder);
        impl Application for Timers {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::from_millis(5), 5);
                ctx.set_timer(SimTime::from_millis(1), 1);
                ctx.set_timer(SimTime::from_millis(1), 2); // tie: insertion order
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.0.on_timer(ctx, token);
            }
        }
        let mut sim = Simulator::new(one_channel(1e6), Timers(Recorder::default()), 0);
        sim.run_to_completion();
        assert_eq!(
            sim.app().0.timers,
            vec![
                (SimTime::from_millis(1), 1),
                (SimTime::from_millis(1), 2),
                (SimTime::from_millis(5), 5),
            ]
        );
    }

    #[test]
    fn past_timer_clamped_to_now() {
        struct Past(Recorder);
        impl Application for Past {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::from_millis(2), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                if token == 0 {
                    ctx.set_timer(SimTime::ZERO, 1); // in the past
                }
                self.0.on_timer(ctx, token);
            }
        }
        let mut sim = Simulator::new(one_channel(1e6), Past(Recorder::default()), 0);
        sim.run_to_completion();
        assert_eq!(sim.app().0.timers[1], (SimTime::from_millis(2), 1));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Periodic;
        impl Application for Periodic {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
                let next = ctx.now() + SimTime::from_millis(1);
                ctx.set_timer(next, 0);
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 10]));
            }
        }
        let mut sim = Simulator::new(one_channel(1e9), Periodic, 0);
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        let sent = sim.network().channel(0).forward().stats().queued_frames;
        assert_eq!(sent, 10);
        // The clock still advances to a later deadline with queued events.
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn bidirectional_traffic_is_independent() {
        struct Both;
        impl Application for Both {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 125]));
                let _ = ctx.send(0, Endpoint::B, Frame::new(vec![0u8; 250]));
            }
        }
        let mut sim = Simulator::new(one_channel(1e6), Both, 0);
        sim.run_to_completion();
        assert_eq!(
            sim.network().channel(0).forward().stats().delivered_bits,
            1000
        );
        assert_eq!(
            sim.network().channel(0).backward().stats().delivered_bits,
            2000
        );
    }

    #[test]
    fn echo_round_trip() {
        struct Echo {
            rtt: Option<SimTime>,
        }
        impl Application for Echo {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![1u8; 125]));
            }
            fn on_deliver(
                &mut self,
                ctx: &mut Context<'_>,
                channel: ChannelId,
                to: Endpoint,
                frame: Frame,
            ) {
                match to {
                    Endpoint::B => {
                        let _ = ctx.send(channel, Endpoint::B, frame);
                    }
                    Endpoint::A => self.rtt = Some(ctx.now()),
                }
            }
        }
        // 1 ms serialization + 5 ms delay each way.
        let mut b = NetworkBuilder::new();
        b.channel(LinkConfig::new(1e6).with_delay(SimTime::from_millis(5)));
        let mut sim = Simulator::new(b.build(), Echo { rtt: None }, 0);
        sim.run_to_completion();
        assert_eq!(sim.app().rtt, Some(SimTime::from_millis(12)));
    }

    #[test]
    fn writability_reflects_backlog() {
        struct Check;
        impl Application for Check {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                assert!(ctx.is_writable(0, Endpoint::A, SimTime::ZERO));
                // 8000 bits at 1 Mbit/s = 8 ms backlog.
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 1000]));
                assert!(!ctx.is_writable(0, Endpoint::A, SimTime::ZERO));
                assert!(ctx.is_writable(0, Endpoint::A, SimTime::from_millis(8)));
                assert_eq!(ctx.backlog(0, Endpoint::A), SimTime::from_millis(8));
                assert_eq!(ctx.backlog(0, Endpoint::B), SimTime::ZERO);
            }
        }
        let mut sim = Simulator::new(one_channel(1e6), Check, 0);
        sim.run_to_completion();
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        struct Lossy {
            delivered: u64,
        }
        impl Application for Lossy {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _t: u64) {
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![0u8; 100]));
                if ctx.now() < SimTime::from_millis(100) {
                    let next = ctx.now() + SimTime::from_micros(100);
                    ctx.set_timer(next, 0);
                }
            }
            fn on_deliver(
                &mut self,
                _ctx: &mut Context<'_>,
                _c: ChannelId,
                _to: Endpoint,
                _f: Frame,
            ) {
                self.delivered += 1;
            }
        }
        let net = || {
            let mut b = NetworkBuilder::new();
            b.channel(LinkConfig::new(100e6).with_loss(0.3));
            b.build()
        };
        let run = |seed| {
            let mut sim = Simulator::new(net(), Lossy { delivered: 0 }, seed);
            sim.run_to_completion();
            (
                sim.app().delivered,
                sim.network().channel(0).forward().stats().lost_frames,
            )
        };
        assert_eq!(run(42), run(42));
        // Different seeds draw different loss patterns (overwhelmingly).
        assert_ne!(run(42).1, run(43).1);
    }

    /// Every frame a link loses comes back to the sender's callback as an
    /// empty buffer with its capacity, and only to that callback.
    #[test]
    fn lost_frames_come_back_emptied() {
        struct Lose {
            sent: usize,
            back: Vec<Vec<u8>>,
            later: Option<Vec<u8>>,
        }
        impl Application for Lose {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for len in 1..=self.sent {
                    assert_eq!(
                        ctx.try_send(0, Endpoint::A, Frame::new(vec![7u8; len])),
                        Ok(())
                    );
                }
                self.back.extend(std::iter::from_fn(|| ctx.take_lost()));
                let _ = ctx.send(0, Endpoint::A, Frame::new(vec![7u8; 100]));
                ctx.set_timer(SimTime::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
                self.later = ctx.take_lost();
            }
        }
        let mut b = NetworkBuilder::new();
        b.channel(LinkConfig::new(1e9).with_loss(0.5));
        let app = Lose {
            sent: 200,
            back: Vec::new(),
            later: None,
        };
        let mut sim = Simulator::new(b.build(), app, 3);
        sim.run_to_completion();
        let lost = sim.network().channel(0).forward().stats().lost_frames;
        let app = sim.app();
        assert!(lost > 50, "loss 0.5 over 201 frames lost only {lost}");
        assert!(app.later.is_none(), "a lost buffer outlived its callback");
        assert!(app.back.iter().all(Vec::is_empty));
        let mut capacities: Vec<usize> = app.back.iter().map(Vec::capacity).collect();
        capacities.sort_unstable();
        capacities.dedup();
        assert_eq!(capacities.len(), app.back.len(), "a buffer came back twice");
        assert!(capacities.iter().all(|&c| (1..=app.sent).contains(&c)));
        // The frame sent after the drain may have been lost as well.
        assert!((0..=1).contains(&(lost - app.back.len() as u64)));
    }

    #[test]
    fn empty_queue_step_returns_false() {
        let mut sim = Simulator::new(one_channel(1e6), Recorder::default(), 0);
        assert!(!sim.step());
    }

    /// A jittery, lossy, multi-channel app whose full delivery/timer
    /// record must be identical under both event-queue backends.
    #[test]
    fn wheel_replays_heap_bit_identical() {
        struct Chatty(Recorder);
        impl Application for Chatty {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimTime::ZERO, 0);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, t: u64) {
                for c in 0..ctx.num_channels() {
                    let _ = ctx.send(c, Endpoint::A, Frame::new(vec![0u8; 200 + 10 * c]));
                }
                if ctx.now() < SimTime::from_millis(50) {
                    // Uneven periods so timers and deliveries interleave
                    // and collide at shared timestamps.
                    let next = ctx.now() + SimTime::from_micros(90 + 7 * (t % 13));
                    ctx.set_timer(next, t + 1);
                }
                self.0.on_timer(ctx, t);
            }
            fn on_deliver(
                &mut self,
                ctx: &mut Context<'_>,
                channel: ChannelId,
                to: Endpoint,
                frame: Frame,
            ) {
                if to == Endpoint::B && frame.len().is_multiple_of(3) {
                    let _ = ctx.send(channel, Endpoint::B, frame.clone());
                }
                self.0.on_deliver(ctx, channel, to, frame);
            }
        }
        let net = || {
            let mut b = NetworkBuilder::new();
            b.channel(LinkConfig::new(8e6).with_loss(0.05));
            b.channel(
                LinkConfig::new(2e6)
                    .with_delay(SimTime::from_millis(3))
                    .with_jitter(SimTime::from_millis(1)),
            );
            b.channel(LinkConfig::new(1e6));
            b.build()
        };
        let run = |kind| {
            let mut sim = Simulator::with_queue_kind(net(), Chatty(Recorder::default()), 11, kind);
            sim.enable_trace(1 << 16);
            sim.run_to_completion();
            let trace: Vec<_> = sim.trace().unwrap().events().cloned().collect();
            let events = sim.events_processed();
            let recorder = sim.app_mut();
            (
                std::mem::take(&mut recorder.0.delivered),
                std::mem::take(&mut recorder.0.timers),
                trace,
                events,
            )
        };
        let heap = run(crate::queue::QueueKind::Heap);
        let wheel = run(crate::queue::QueueKind::Wheel);
        assert_eq!(heap, wheel);
        assert!(heap.3 > 1000, "workload should be non-trivial");
    }

    #[test]
    fn app_accessors() {
        let mut sim = Simulator::new(one_channel(1e6), Recorder::default(), 0);
        sim.app_mut().timers.push((SimTime::ZERO, 9));
        assert_eq!(sim.app().timers.len(), 1);
    }
}
