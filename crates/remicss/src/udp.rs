//! The real-socket driver: the sans-I/O [`Engine`] over non-blocking
//! UDP socket pairs (feature `udp`).
//!
//! Each protocol channel maps to one loopback UDP socket pair — host A's
//! end and host B's end, cross-connected — mirroring the paper's testbed
//! where every channel is an independent UDP path. The driver supplies
//! exactly what the engine cannot have: a monotonic clock (an [`Instant`]
//! epoch mapped to [`SimTime`]), a timer queue, socket sends/receives,
//! and a seeded RNG for the model stream (its engine draws shares
//! under a secret key of its own). Every protocol decision —
//! scheduling, splitting, reassembly, adaptation — is the *same code*
//! the simulator runs.
//!
//! The driver runs the engine in [`SourceMode::External`]: the
//! application offers payloads with [`UdpDriver::send_symbol`] and takes
//! reconstructions back from [`UdpDriver::next_symbol`] after
//! [`UdpDriver::poll`] (or the blocking [`UdpDriver::drive`]).
//!
//! ```no_run
//! use mcss_remicss::config::ProtocolConfig;
//! use mcss_remicss::udp::UdpDriver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ProtocolConfig::new(2.0, 3.0)?.with_symbol_bytes(1024);
//! let mut driver = UdpDriver::new(config, 4, 42)?;
//! driver.send_symbol(&[0xAB; 1024])?;
//! driver.drive(std::time::Duration::from_millis(50))?;
//! while let Some((seq, payload)) = driver.next_symbol() {
//!     println!("symbol {seq}: {} bytes", payload.len());
//! }
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::io;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcss_base::{Endpoint, EventQueue, QueueKind, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

use crate::actions::{Action, Event};
use crate::config::ProtocolConfig;
use crate::engine::{Engine, SessionReport, SourceMode};

/// Largest datagram the driver will receive: the wire header plus the
/// largest payload [`ProtocolConfig`] accepts fits far below this.
const MAX_DATAGRAM: usize = 65_535;

/// One channel's socket pair: `a` is host A's end, `b` is host B's end.
#[derive(Debug)]
struct ChannelSockets {
    a: UdpSocket,
    b: UdpSocket,
}

impl ChannelSockets {
    fn loopback_pair() -> io::Result<Self> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        let b = UdpSocket::bind("127.0.0.1:0")?;
        a.connect(b.local_addr()?)?;
        b.connect(a.local_addr()?)?;
        a.set_nonblocking(true)?;
        b.set_nonblocking(true)?;
        Ok(ChannelSockets { a, b })
    }

    /// `endpoint`'s own socket: transmit on it as `from`, receive on it
    /// as `to` (the pair is cross-connected).
    fn sock(&self, endpoint: Endpoint) -> &UdpSocket {
        match endpoint {
            Endpoint::A => &self.a,
            Endpoint::B => &self.b,
        }
    }
}

/// The engine's pure state machine driven by real UDP sockets on
/// loopback, one socket pair per channel.
#[derive(Debug)]
pub struct UdpDriver {
    engine: Engine,
    rng: StdRng,
    // Separate stream for injected loss so fault injection never
    // perturbs the engine's scheduler/split draws.
    fault_rng: StdRng,
    loss: Vec<f64>,
    channels: Vec<ChannelSockets>,
    // Hierarchical timer wheel with netsim timer semantics — earliest
    // due time first, FIFO among equal due times.
    timers: EventQueue<u64>,
    timer_seq: u64,
    epoch: Instant,
    recv_buf: Vec<u8>,
    delivered: VecDeque<(u64, Vec<u8>)>,
}

impl UdpDriver {
    /// Binds `n` loopback socket pairs and starts an external-source
    /// engine with the given model-stream RNG `seed`, drawing shares
    /// under a fresh secret key.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if socket setup fails;
    /// [`io::ErrorKind::InvalidInput`] if the config's `(κ, μ)` are
    /// invalid for `n` channels.
    pub fn new(config: impl Into<Arc<ProtocolConfig>>, n: usize, seed: u64) -> io::Result<Self> {
        let engine = Engine::new(config, n, SourceMode::External)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let channels = (0..n)
            .map(|_| ChannelSockets::loopback_pair())
            .collect::<io::Result<Vec<_>>>()?;
        let mut driver = UdpDriver {
            engine,
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(seed ^ FAULT_SEED_MIX),
            loss: vec![0.0; n],
            channels,
            timers: EventQueue::new(QueueKind::Wheel),
            timer_seq: 0,
            epoch: Instant::now(),
            recv_buf: vec![0u8; MAX_DATAGRAM],
            delivered: VecDeque::new(),
        };
        let now = driver.now();
        driver.engine.handle(now, Event::Started, &mut driver.rng);
        driver.apply_actions()?;
        Ok(driver)
    }

    /// The driver's monotonic clock, as engine time (nanoseconds since
    /// construction).
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// The driven sans-I/O engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The engine's report over a measurement `window`.
    #[must_use]
    pub fn report(&self, window: SimTime) -> SessionReport {
        self.engine.report(window)
    }

    /// Injects share loss on `channel`: each outgoing share frame is
    /// silently discarded with probability `p` *after* the engine counts
    /// it sent, emulating in-flight datagram loss.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `channel` is out of range.
    pub fn set_loss(&mut self, channel: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss[channel] = p;
    }

    /// Offers one symbol payload for transmission from host A.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying socket sends.
    pub fn send_symbol(&mut self, payload: &[u8]) -> io::Result<()> {
        let now = self.now();
        self.engine
            .handle(now, Event::SymbolReady { payload }, &mut self.rng);
        self.apply_actions()
    }

    /// One non-blocking duty cycle: fires due timers, drains every
    /// socket, and queues reconstructed symbols for
    /// [`next_symbol`](UdpDriver::next_symbol). Returns how many
    /// datagrams were received.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the underlying sockets (`WouldBlock` is
    /// handled internally and never surfaced).
    pub fn poll(&mut self) -> io::Result<usize> {
        self.fire_due_timers()?;
        let mut received = 0;
        for channel in 0..self.channels.len() {
            // Shares travel A→B (received on B's socket), control and
            // echoes B→A (received on A's socket).
            for to in [Endpoint::B, Endpoint::A] {
                loop {
                    let sock = self.channels[channel].sock(to);
                    let mut buf = std::mem::take(&mut self.recv_buf);
                    let got = match sock.recv(&mut buf) {
                        Ok(len) => {
                            let now = self.now();
                            let _ = self.engine.handle_frame(
                                now,
                                channel,
                                to,
                                &buf[..len],
                                &mut self.rng,
                            );
                            true
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
                        Err(e) => {
                            self.recv_buf = buf;
                            return Err(e);
                        }
                    };
                    self.recv_buf = buf;
                    if !got {
                        break;
                    }
                    received += 1;
                    self.apply_actions()?;
                }
            }
        }
        Ok(received)
    }

    /// Polls in a sleep loop for `duration` (wall clock), long enough
    /// for in-flight shares and timers to settle.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from [`poll`](UdpDriver::poll).
    pub fn drive(&mut self, duration: Duration) -> io::Result<()> {
        let deadline = Instant::now() + duration;
        loop {
            let got = self.poll()?;
            if Instant::now() >= deadline {
                return Ok(());
            }
            if got == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    /// Takes the next reconstructed symbol `(seq, payload)`, if any.
    pub fn next_symbol(&mut self) -> Option<(u64, Vec<u8>)> {
        self.delivered.pop_front()
    }

    fn fire_due_timers(&mut self) -> io::Result<()> {
        loop {
            let now = self.now();
            match self.timers.next_at() {
                Some(at) if at <= now => {}
                _ => return Ok(()),
            }
            let (_, _, token) = self.timers.pop().expect("peeked entry exists");
            self.engine
                .handle(now, Event::TimerFired { token }, &mut self.rng);
            self.apply_actions()?;
        }
    }

    /// Drains the engine's action queue against the sockets and timer
    /// heap, reporting each send outcome back to the engine.
    fn apply_actions(&mut self) -> io::Result<()> {
        while let Some(action) = self.engine.poll_action() {
            match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                } => {
                    if self.loss[channel] > 0.0 && self.fault_rng.random_bool(self.loss[channel]) {
                        // Injected in-flight loss: counted sent, never
                        // put on the wire.
                        self.engine.share_send_ok(channel);
                        self.engine.recycle(frame);
                        continue;
                    }
                    match self.channels[channel].sock(from).send(&frame) {
                        Ok(_) => {
                            self.engine.share_send_ok(channel);
                            self.engine.recycle(frame);
                        }
                        Err(e) if would_drop(&e) => {
                            // A full socket buffer is the real-world
                            // analogue of the simulator's queue drop.
                            self.engine.share_send_rejected(channel, frame);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Action::SendControl {
                    channel,
                    from,
                    frame,
                } => match self.channels[channel].sock(from).send(&frame) {
                    Ok(_) => self.engine.recycle(frame),
                    Err(e) if would_drop(&e) => self.engine.control_send_rejected(frame),
                    Err(e) => return Err(e),
                },
                Action::SetTimer { token, at } => {
                    self.timer_seq += 1;
                    self.timers.push(at, self.timer_seq, token);
                }
                Action::DeliverSymbol { seq, payload } => {
                    self.delivered.push_back((seq, payload));
                }
            }
        }
        Ok(())
    }
}

/// Send errors that mean "this datagram is dropped" rather than "the
/// driver is broken": full socket buffers and kernel-refused datagrams.
fn would_drop(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::OutOfMemory | io::ErrorKind::ConnectionRefused
    )
}

/// Mixed into the fault-injection seed so the loss stream differs from
/// the engine stream even for seed 0.
const FAULT_SEED_MIX: u64 = 0xFA17_1E55_0DDB_0A11;
