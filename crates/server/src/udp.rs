//! The socket-facing server: every shard runs on its own thread with
//! its **own** per-channel sockets.
//!
//! # Socket topology
//!
//! Each shard owns one cross-connected loopback pair per protocol
//! channel — the paper's testbed in miniature, where every channel is
//! its own point-to-point path. Shard *i*'s A socket sends only shard
//! *i*'s sessions' frames, and its B socket accepts datagrams from that
//! A socket alone, so every datagram a shard reads belongs to one of
//! its own sessions and no frame crosses a thread boundary. The same
//! layout is built on every OS.
//!
//! # Event loop backends
//!
//! * **epoll** (Linux, default): each shard sleeps in `epoll_wait` on
//!   its sockets; the timeout comes from the shard timer wheel's next
//!   deadline (capped at 25 ms, which bounds how late the stop flag is
//!   seen), so an idle shard costs nothing. Timers fire on the
//!   millisecond grid `epoll_wait` sleeps in: a timer pass is followed
//!   by the next one at the first whole millisecond after it, so each
//!   pass sends a millisecond of shares at once, and a wakeup by
//!   readability in between only receives and sends. A source above
//!   1 000 sym/s that is behind keeps catching up a tick a pass, between
//!   receive batches, as [`Shard::poll_timers`] describes. Datagram
//!   I/O is batched through `recvmmsg`/`sendmmsg` ([`sys::BATCH`]
//!   messages per syscall), and a message is a *train* wherever one
//!   forms: every share frame of a server has one length (one
//!   `ProtocolConfig`), so the shares a pass queues on one channel —
//!   one from each of many sessions — leave as a few `UDP_SEGMENT`
//!   messages and, the reading sockets having `UDP_GRO` set, arrive as
//!   a few (see [`crate::sys`]). The kernel's per-packet path then runs
//!   once per train, not once per share.
//! * **busypoll** (portable fallback): the original loop — poll every
//!   socket with nonblocking `recv`, sleep 100 µs when idle. One
//!   datagram per syscall and per message, no trains.
//!
//! Select with [`ServerConfig::io`](crate::shard::ServerConfig) or the
//! `MCSS_SERVER_IO` environment variable (`epoll` / `busypoll`).
//! Session behaviour is identical on both backends — each session's
//! events still arrive in order on its owning shard — so the choice is
//! purely operational.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcss_base::{Endpoint, SimTime};
use mcss_obs::MetricsSnapshot;
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::engine::{SessionReport, SourceMode, Workload};

use crate::shard::{ServerConfig, Shard, ShardSet, MAX_DATAGRAM};
use crate::stats::{ShardStats, ShardStatsSnapshot};

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

#[cfg(target_os = "linux")]
use crate::sys;

/// How the I/O backend is chosen at [`UdpServer::new`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// `MCSS_SERVER_IO` if set, otherwise [`IoBackend::Epoll`] on
    /// Linux and [`IoBackend::Busypoll`] elsewhere.
    #[default]
    Auto,
    /// Force the portable busy-poll loop.
    Busypoll,
    /// Force the readiness-driven epoll loop (Linux only).
    Epoll,
}

/// The resolved event-loop implementation a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// Nonblocking `recv`/`send` per datagram, 100 µs idle sleep.
    Busypoll,
    /// `epoll_wait` wakeups, `recvmmsg`/`sendmmsg` batching of
    /// GSO/GRO trains.
    Epoll,
}

impl IoBackend {
    /// Backend name as accepted by `MCSS_SERVER_IO`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Busypoll => "busypoll",
            IoBackend::Epoll => "epoll",
        }
    }

    /// Every backend this host supports.
    #[must_use]
    pub fn available() -> &'static [IoBackend] {
        #[cfg(target_os = "linux")]
        {
            &[IoBackend::Epoll, IoBackend::Busypoll]
        }
        #[cfg(not(target_os = "linux"))]
        {
            &[IoBackend::Busypoll]
        }
    }
}

impl IoMode {
    /// Resolves the mode to a concrete backend.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] for epoll off Linux,
    /// [`io::ErrorKind::InvalidInput`] for an unrecognized
    /// `MCSS_SERVER_IO` value.
    pub fn resolve(self) -> io::Result<IoBackend> {
        match self {
            IoMode::Busypoll => Ok(IoBackend::Busypoll),
            IoMode::Epoll => {
                if cfg!(target_os = "linux") {
                    Ok(IoBackend::Epoll)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "the epoll backend requires Linux",
                    ))
                }
            }
            IoMode::Auto => match std::env::var("MCSS_SERVER_IO") {
                Ok(v) if v == "epoll" => IoMode::Epoll.resolve(),
                Ok(v) if v == "busypoll" => Ok(IoBackend::Busypoll),
                Ok(v) => Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("MCSS_SERVER_IO must be `epoll` or `busypoll`, got `{v}`"),
                )),
                Err(_) => {
                    if cfg!(target_os = "linux") {
                        Ok(IoBackend::Epoll)
                    } else {
                        Ok(IoBackend::Busypoll)
                    }
                }
            },
        }
    }
}

/// One shard's sockets for one protocol channel: a loopback pair
/// connected to each other, so each socket both sends its endpoint's
/// datagrams and receives the other endpoint's.
#[derive(Debug)]
struct ShardChannel {
    a: UdpSocket,
    b: UdpSocket,
}

impl ShardChannel {
    /// The socket `endpoint` sends from and receives on.
    fn sock(&self, endpoint: Endpoint) -> &UdpSocket {
        match endpoint {
            Endpoint::A => &self.a,
            Endpoint::B => &self.b,
        }
    }
}

/// All sockets one shard thread owns: one [`ShardChannel`] per
/// protocol channel.
#[derive(Debug)]
struct ShardIo {
    channels: Vec<ShardChannel>,
}

/// Kernel buffer size requested per socket. A fleet of thousands of
/// sessions legitimately bursts far past the ~208 KiB default receive
/// buffer within one event-loop pass; the kernel clamps this to
/// `net.core.rmem_max`, and a refusal is harmless (smaller buffers,
/// more tail drops under burst).
const SOCKET_BUF_BYTES: i32 = 4 << 20;

fn tune_socket(sock: &UdpSocket) {
    #[cfg(target_os = "linux")]
    sys::enlarge_socket_buffers(sock, SOCKET_BUF_BYTES);
    #[cfg(not(target_os = "linux"))]
    let _ = sock;
}

/// The socket layout: one cross-connected loopback pair per (shard,
/// channel), so a shard reads only datagrams its own sockets sent.
fn paired_topology(shards: usize, channels: usize) -> io::Result<Vec<ShardIo>> {
    let mut ios = Vec::with_capacity(shards);
    for _ in 0..shards {
        let mut per_channel = Vec::with_capacity(channels);
        for _ in 0..channels {
            let a = UdpSocket::bind("127.0.0.1:0")?;
            let b = UdpSocket::bind("127.0.0.1:0")?;
            a.connect(b.local_addr()?)?;
            b.connect(a.local_addr()?)?;
            a.set_nonblocking(true)?;
            b.set_nonblocking(true)?;
            tune_socket(&a);
            tune_socket(&b);
            per_channel.push(ShardChannel { a, b });
        }
        ios.push(ShardIo {
            channels: per_channel,
        });
    }
    Ok(ios)
}

fn sim_now(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// The portable busy-poll event loop (the pre-epoll behaviour, plus
/// wakeup/syscall accounting): poll every socket each iteration, sleep
/// 100 µs when nothing moved.
fn run_shard_busypoll(
    shard: &mut Shard,
    io: &ShardIo,
    epoch: Instant,
    deadline: Instant,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut recv_buf = vec![0u8; MAX_DATAGRAM];
    loop {
        ShardStats::bump(&shard.stats().wakeups);
        let now = sim_now(epoch);
        shard.drain_inbox(now);
        shard.poll_timers(now);
        shard.drain_returns();
        let mut idle = true;
        for (channel, ch) in io.channels.iter().enumerate() {
            // Shares travel A→B (received on B's socket), control B→A
            // (received on A's).
            for to in [Endpoint::B, Endpoint::A] {
                loop {
                    ShardStats::bump(&shard.stats().syscalls_recv);
                    match ch.sock(to).recv(&mut recv_buf) {
                        Ok(len) => {
                            idle = false;
                            ShardStats::bump(&shard.stats().messages_received);
                            let now = sim_now(epoch);
                            shard.route_datagram(now, channel, to, &recv_buf[..len]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        shard.flush_ready(sim_now(epoch));
        while let Some(datagram) = shard.pop_outbound() {
            idle = false;
            ShardStats::bump(&shard.stats().syscalls_send);
            match io.channels[datagram.channel]
                .sock(datagram.from)
                .send(&datagram.bytes)
            {
                Ok(_) => {
                    ShardStats::bump(&shard.stats().datagrams_sent);
                    ShardStats::bump(&shard.stats().messages_sent);
                }
                Err(e) if would_drop(&e) => ShardStats::bump(&shard.stats().send_drops),
                Err(e) => return Err(e),
            }
            shard.recycle_outbound(datagram.bytes);
        }
        if stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
            return Ok(());
        }
        if idle {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// A shard's socket as one number, `2 × channel` for A's and
/// `2 × channel + 1` for B's: the epoll token it is registered under
/// and the staging queue of what it sends.
#[cfg(target_os = "linux")]
fn socket_key(channel: usize, endpoint: Endpoint) -> usize {
    match endpoint {
        Endpoint::A => channel * 2,
        Endpoint::B => channel * 2 + 1,
    }
}

/// The (channel, endpoint) of a [`socket_key`].
#[cfg(target_os = "linux")]
fn key_socket(key: usize) -> (usize, Endpoint) {
    match key % 2 {
        0 => (key / 2, Endpoint::A),
        _ => (key / 2, Endpoint::B),
    }
}

/// Sleep cap of the epoll loop: the stop flag and the wall deadline are
/// observed within this bound.
#[cfg(target_os = "linux")]
const MAX_SLEEP_MS: u64 = 25;

#[cfg(target_os = "linux")]
const NANOS_PER_MS: u64 = 1_000_000;

/// When the epoll loop's next timer pass is due, and how long it may
/// sleep until then.
///
/// A pass at `t` makes the next one wait for the first whole
/// millisecond after `t` — the resolution `epoll_wait` sleeps in — so
/// each pass fires a millisecond of ticks and its trains carry a
/// millisecond of shares. The one exception: a pass that leaves a timer
/// due at or before `t` (a source above 1 000 sym/s catching up a tick
/// a pass, see [`Shard::poll_timers`]) keeps the next pass due at once,
/// after the next receive batch.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone, Copy)]
struct TimerGrid {
    next_pass: SimTime,
}

#[cfg(target_os = "linux")]
impl TimerGrid {
    /// The first pass is due at once.
    fn new() -> Self {
        TimerGrid {
            next_pass: SimTime::ZERO,
        }
    }

    /// Whether a pass at `now` fires the shard's due timers.
    fn due(self, now: SimTime) -> bool {
        now >= self.next_pass
    }

    /// Records a timer pass at `t` that left the wheel's next timer
    /// `timer_ms` away ([`Shard::timer_sleep_ms`] at `t`: 0 when one is
    /// still due).
    fn passed(&mut self, t: SimTime, timer_ms: Option<u64>) {
        self.next_pass = if timer_ms == Some(0) {
            t
        } else {
            SimTime::from_nanos((t.as_nanos() / NANOS_PER_MS + 1) * NANOS_PER_MS)
        };
    }

    /// Milliseconds `epoll_wait` may sleep at `now`, with the wheel's
    /// next timer `timer_ms` away and the run's deadline
    /// `until_deadline` away: `min(25 ms, deadline, max(timer, next
    /// pass))`, every term rounded up, so no wait ends before what it
    /// waits for and none is 0 while all three lie ahead.
    fn wait_ms(self, now: SimTime, timer_ms: Option<u64>, until_deadline: Duration) -> u64 {
        let pass_ms = self
            .next_pass
            .saturating_sub(now)
            .as_nanos()
            .div_ceil(NANOS_PER_MS);
        let deadline_ms = (until_deadline.as_nanos() as u64).div_ceil(NANOS_PER_MS);
        let timer_ms = timer_ms.unwrap_or(u64::MAX).max(pass_ms);
        MAX_SLEEP_MS.min(deadline_ms).min(timer_ms)
    }
}

/// The readiness-driven event loop: sleep in `epoll_wait` until a
/// socket is readable or the next timer pass is due; then move
/// datagrams in `recvmmsg`/`sendmmsg` batches — each message a train
/// where one forms — and flush the ready-set once for the whole wakeup.
///
/// Timer passes run on the millisecond grid of [`TimerGrid`]: a pass
/// woken by readability before the next grid instant receives, routes
/// and sends, but fires no timer early. The shard itself is unaware of
/// the grid; the busy-poll loop and the in-process drivers fire timers
/// whenever they poll.
#[cfg(target_os = "linux")]
fn run_shard_epoll(
    shard: &mut Shard,
    io: &ShardIo,
    epoch: Instant,
    deadline: Instant,
    stop: &AtomicBool,
) -> io::Result<()> {
    let sockets = io.channels.len() * 2;
    let epoll = sys::Epoll::new()?;
    for key in 0..sockets {
        let (channel, endpoint) = key_socket(key);
        let sock = io.channels[channel].sock(endpoint);
        epoll.add_readable(sock.as_raw_fd(), key as u64)?;
        // Trains arrive whole on every socket this loop reads. A kernel
        // that refuses the option cuts them itself, and `RecvBatch`
        // reads either.
        sys::enable_udp_gro(sock);
    }

    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; sockets];
    let mut rx = sys::RecvBatch::new(MAX_DATAGRAM);
    let mut tx = sys::SendBatch::new();
    // Outbound staging, one queue per sending socket, so a queue's
    // equal-length neighbours can leave as one train.
    let mut stage: Vec<Vec<Vec<u8>>> = (0..sockets).map(|_| Vec::new()).collect();
    // The first pass scans every socket; afterwards only sockets epoll
    // reported ready are visited.
    let mut ready: Vec<usize> = (0..sockets).collect();
    let mut grid = TimerGrid::new();

    loop {
        let now = sim_now(epoch);
        shard.drain_inbox(now);
        if grid.due(now) {
            shard.poll_timers(now);
            grid.passed(now, shard.timer_sleep_ms(now));
        }
        shard.drain_returns();

        for &key in &ready {
            let (channel, to) = key_socket(key);
            let fd = io.channels[channel].sock(to).as_raw_fd();
            loop {
                match rx.recv(fd) {
                    Ok(n) => {
                        ShardStats::bump(&shard.stats().syscalls_recv);
                        ShardStats::bump_by(&shard.stats().messages_received, n as u64);
                        let now = sim_now(epoch);
                        for i in 0..n {
                            for datagram in rx.datagrams(i) {
                                shard.route_datagram(now, channel, to, datagram);
                            }
                        }
                        // A short batch means the socket is likely
                        // drained; level-triggered epoll re-reports
                        // any residue on the next wait.
                        if n < sys::BATCH {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        ShardStats::bump(&shard.stats().syscalls_recv);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        shard.flush_ready(sim_now(epoch));

        while let Some(datagram) = shard.pop_outbound() {
            stage[socket_key(datagram.channel, datagram.from)].push(datagram.bytes);
        }
        for (key, bufs) in stage.iter_mut().enumerate() {
            if bufs.is_empty() {
                continue;
            }
            let (channel, from) = key_socket(key);
            let fd = io.channels[channel].sock(from).as_raw_fd();
            let outcome = tx.send_all(fd, bufs, would_drop)?;
            ShardStats::bump_by(&shard.stats().datagrams_sent, outcome.sent as u64);
            ShardStats::bump_by(&shard.stats().send_drops, outcome.dropped as u64);
            ShardStats::bump_by(&shard.stats().syscalls_send, outcome.syscalls);
            ShardStats::bump_by(&shard.stats().messages_sent, outcome.messages);
            ShardStats::bump_by(&shard.stats().segmentation_refused, outcome.refused);
            for buf in bufs.drain(..) {
                shard.recycle_outbound(buf);
            }
        }

        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let wall = Instant::now();
        if wall >= deadline {
            return Ok(());
        }
        let now = sim_now(epoch);
        let timeout_ms = grid.wait_ms(now, shard.timer_sleep_ms(now), deadline - wall);

        ShardStats::bump(&shard.stats().wakeups);
        let n = epoll.wait(&mut events, timeout_ms as i32)?;
        ready.clear();
        ready.extend(events[..n].iter().map(|event| event.data as usize));
    }
}

fn run_shard(
    backend: IoBackend,
    shard: &mut Shard,
    io: &ShardIo,
    epoch: Instant,
    deadline: Instant,
    stop: &AtomicBool,
) -> io::Result<()> {
    match backend {
        IoBackend::Busypoll => run_shard_busypoll(shard, io, epoch, deadline, stop),
        IoBackend::Epoll => {
            #[cfg(target_os = "linux")]
            {
                run_shard_epoll(shard, io, epoch, deadline, stop)
            }
            #[cfg(not(target_os = "linux"))]
            {
                unreachable!("IoMode::resolve rejects epoll off Linux")
            }
        }
    }
}

/// Aggregate outcome of one [`UdpServer::run_for`] window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSummary {
    /// Wall-clock time the shard threads ran.
    pub elapsed: Duration,
    /// Sessions served.
    pub sessions: usize,
    /// Symbols sent across all sessions (from engine reports).
    pub sent_symbols: u64,
    /// Symbols reconstructed across all sessions.
    pub delivered_symbols: u64,
    /// Share datagrams queued outbound across all shards.
    pub shares_sent: u64,
    /// Datagrams read off the sockets across all shards.
    pub datagrams_received: u64,
    /// Frames handed off between shards.
    pub handoffs: u64,
    /// Outbound datagrams the kernel refused (socket backpressure).
    pub send_drops: u64,
}

impl ServerSummary {
    /// Aggregate reconstructed-symbol throughput.
    #[must_use]
    pub fn delivered_per_sec(&self) -> f64 {
        self.delivered_symbols as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Wall-clock phase layout for [`UdpServer::run_phases`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPhases {
    /// Ramp-up excluded from the measured window (sessions start,
    /// pools warm).
    pub warmup: Duration,
    /// The measured window proper.
    pub measure: Duration,
    /// Post-window tail so in-flight datagrams land before the threads
    /// exit (excluded from the window, included in the whole-run
    /// summary).
    pub drain: Duration,
}

impl RunPhases {
    /// A pure measurement window with no warmup or drain.
    #[must_use]
    pub fn measure_only(measure: Duration) -> Self {
        RunPhases {
            warmup: Duration::ZERO,
            measure,
            drain: Duration::ZERO,
        }
    }

    fn total(self) -> Duration {
        self.warmup + self.measure + self.drain
    }
}

/// Counter deltas over exactly the measured window of a
/// [`UdpServer::run_phases`] run — warmup and drain excluded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Measured wall-clock window.
    pub window: Duration,
    /// Symbols reconstructed within the window.
    pub delivered_symbols: u64,
    /// Share datagrams queued outbound within the window.
    pub shares_sent: u64,
    /// Datagrams read off the sockets within the window.
    pub datagrams_received: u64,
    /// Datagrams the kernel accepted within the window.
    pub datagrams_sent: u64,
    /// Event-loop wakeups within the window.
    pub wakeups: u64,
    /// Receive syscalls within the window.
    pub syscalls_recv: u64,
    /// Send syscalls within the window.
    pub syscalls_send: u64,
    /// Kernel messages (each one datagram or one train) the sockets
    /// accepted within the window.
    pub messages_sent: u64,
    /// Kernel messages read off the sockets within the window.
    pub messages_received: u64,
    /// Frames handed off between shards within the window.
    pub handoffs: u64,
    /// Outbound datagrams refused within the window.
    pub send_drops: u64,
}

impl WindowStats {
    fn delta(window: Duration, before: &ShardStatsSnapshot, after: &ShardStatsSnapshot) -> Self {
        WindowStats {
            window,
            delivered_symbols: after.symbols_delivered - before.symbols_delivered,
            shares_sent: after.shares_sent - before.shares_sent,
            datagrams_received: after.datagrams_received - before.datagrams_received,
            datagrams_sent: after.datagrams_sent - before.datagrams_sent,
            wakeups: after.wakeups - before.wakeups,
            syscalls_recv: after.syscalls_recv - before.syscalls_recv,
            syscalls_send: after.syscalls_send - before.syscalls_send,
            messages_sent: after.messages_sent - before.messages_sent,
            messages_received: after.messages_received - before.messages_received,
            handoffs: after.handoff_in - before.handoff_in,
            send_drops: after.send_drops - before.send_drops,
        }
    }

    /// Reconstructed-symbol throughput over the window.
    #[must_use]
    pub fn delivered_per_sec(&self) -> f64 {
        self.delivered_symbols as f64 / self.window.as_secs_f64().max(1e-9)
    }

    /// Mean datagrams moved per I/O syscall (the batching payoff).
    #[must_use]
    pub fn datagrams_per_syscall(&self) -> f64 {
        let datagrams = self.datagrams_received + self.datagrams_sent;
        let syscalls = (self.syscalls_recv + self.syscalls_send).max(1);
        datagrams as f64 / syscalls as f64
    }

    /// Mean datagrams per kernel message — the mean train length; 1 on
    /// the busy-poll backend and wherever no train forms.
    #[must_use]
    pub fn datagrams_per_message(&self) -> f64 {
        let datagrams = self.datagrams_received + self.datagrams_sent;
        let messages = (self.messages_received + self.messages_sent).max(1);
        datagrams as f64 / messages as f64
    }
}

/// Whole-run summary plus the warmup-excluded measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasedSummary {
    /// The whole run, warmup and drain included (same accounting as
    /// [`UdpServer::run_for`]).
    pub run: ServerSummary,
    /// Counter deltas over the measured window only.
    pub window: WindowStats,
}

/// The sharded server over real loopback sockets: construct, register
/// paced sessions, then [`run_for`](UdpServer::run_for) a wall-clock
/// window (or [`run_phases`](UdpServer::run_phases) for a
/// warmup-excluded measurement).
///
/// ```no_run
/// use std::sync::Arc;
/// use std::time::Duration;
/// use mcss_base::SimTime;
/// use mcss_remicss::config::ProtocolConfig;
/// use mcss_remicss::engine::Workload;
/// use mcss_server::{ServerConfig, UdpServer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let protocol = Arc::new(ProtocolConfig::new(2.0, 3.0)?.with_symbol_bytes(64));
/// let mut server = UdpServer::new(ServerConfig::with_shards(4), protocol, 5)?;
/// for cid in 0..100u32 {
///     let workload = Workload::cbr(50.0, SimTime::from_secs(10));
///     server.add_session(cid, workload, u64::from(cid))?;
/// }
/// let summary = server.run_for(Duration::from_millis(500))?;
/// println!("{} symbols/s", summary.delivered_per_sec());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct UdpServer {
    set: ShardSet,
    protocol: Arc<ProtocolConfig>,
    topology: Vec<ShardIo>,
    num_channels: usize,
    backend: IoBackend,
    /// Wall→engine time origin; reset at each run so `Started` lands
    /// near time zero, where the engines arm their initial timers.
    epoch: Instant,
}

impl UdpServer {
    /// Resolves the I/O backend, binds the per-shard socket topology,
    /// and builds the shard set.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if socket setup fails or
    /// [`ServerConfig::io`](crate::shard::ServerConfig) does not
    /// resolve ([`io::ErrorKind::Unsupported`] /
    /// [`io::ErrorKind::InvalidInput`]).
    pub fn new(
        config: ServerConfig,
        protocol: impl Into<Arc<ProtocolConfig>>,
        channels: usize,
    ) -> io::Result<Self> {
        let backend = config.io.resolve()?;
        let set = ShardSet::new(&config);
        let topology = paired_topology(set.num_shards(), channels)?;
        Ok(UdpServer {
            set,
            protocol: protocol.into(),
            topology,
            num_channels: channels,
            backend,
            epoch: Instant::now(),
        })
    }

    /// The event-loop backend this server resolved to.
    #[must_use]
    pub fn backend(&self) -> IoBackend {
        self.backend
    }

    /// Registers a paced session under `cid`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a duplicate `cid` or
    /// protocol parameters the engine rejects.
    pub fn add_session(&mut self, cid: u32, workload: Workload, seed: u64) -> io::Result<()> {
        self.set
            .add_session(
                cid,
                Arc::clone(&self.protocol),
                self.num_channels,
                SourceMode::Paced(workload),
                seed,
            )
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    }

    /// Sessions registered.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.set.session_count()
    }

    /// The deterministic core (per-shard stats, pools, reports).
    #[must_use]
    pub fn shards(&self) -> &ShardSet {
        &self.set
    }

    /// Aggregated per-shard metrics (`server.shard{i}.*` plus
    /// `server.total.*`: counters, gauges, and the per-channel delay,
    /// gap and residency distributions).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.set.metrics_snapshot()
    }

    /// Per-session engine reports over `window`.
    #[must_use]
    pub fn session_reports(&self, window: SimTime) -> Vec<(u32, SessionReport)> {
        let mut reports = Vec::new();
        for i in 0..self.set.num_shards() {
            let shard = self.set.shard(i);
            for cid in shard.cids() {
                reports.push((cid, shard.report(cid, window)));
            }
        }
        reports.sort_by_key(|(cid, _)| *cid);
        reports
    }

    /// Starts every session and runs one shard thread per shard for
    /// `wall` of wall-clock time.
    ///
    /// # Errors
    ///
    /// The first socket error any shard thread hit (`WouldBlock` and
    /// kernel-refused sends are handled internally, never surfaced).
    pub fn run_for(&mut self, wall: Duration) -> io::Result<ServerSummary> {
        self.run_phases(RunPhases::measure_only(wall))
            .map(|p| p.run)
    }

    /// Like [`run_for`](UdpServer::run_for), but with an explicit
    /// warmup / measure / drain phase layout: the returned
    /// [`WindowStats`] covers exactly the measure phase, so warmup
    /// ramp and shutdown tail never pollute a throughput number.
    ///
    /// # Errors
    ///
    /// As [`run_for`](UdpServer::run_for).
    pub fn run_phases(&mut self, phases: RunPhases) -> io::Result<PhasedSummary> {
        self.epoch = Instant::now();
        let epoch = self.epoch;
        let started = Instant::now();
        // Start sessions before the threads exist: Started arms timers
        // near t=0 and the wheels fire them once the threads spin up.
        let now = sim_now(epoch);
        for i in 0..self.set.num_shards() {
            let shard = self.set.shard_mut(i);
            let cids: Vec<u32> = shard.cids().collect();
            for cid in cids {
                shard.start_session(now, cid);
            }
        }

        let backend = self.backend;
        let stats: Vec<Arc<ShardStats>> = (0..self.set.num_shards())
            .map(|i| Arc::clone(self.set.shard(i).stats()))
            .collect();
        let stop = AtomicBool::new(false);
        let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let deadline = Instant::now() + phases.total();
        let set = &mut self.set;
        let topology = &self.topology;
        let mut window = WindowStats::default();
        std::thread::scope(|scope| {
            let stop = &stop;
            let first_error = &first_error;
            for (shard, io) in set.shards_mut().iter_mut().zip(topology.iter()) {
                scope.spawn(move || {
                    if let Err(e) = run_shard(backend, shard, io, epoch, deadline, stop) {
                        first_error.lock().unwrap().get_or_insert(e);
                        stop.store(true, Ordering::Relaxed);
                    }
                });
            }
            // Measurement runs on this thread: counter snapshots at the
            // warmup/measure phase edges bound the window exactly.
            std::thread::sleep(phases.warmup);
            let t0 = Instant::now();
            let before = sum_stats(&stats);
            std::thread::sleep(phases.measure);
            let after = sum_stats(&stats);
            window = WindowStats::delta(t0.elapsed(), &before, &after);
            // The scope joins the shard threads, which exit on their
            // own once the drain phase runs out the deadline.
        });
        if let Some(e) = first_error.lock().unwrap().take() {
            return Err(e);
        }

        let elapsed = started.elapsed();
        let report_window = SimTime::from_nanos(elapsed.as_nanos() as u64);
        let mut sent_symbols = 0;
        let mut delivered_symbols = 0;
        for (_, report) in self.session_reports(report_window) {
            sent_symbols += report.sent_symbols;
            delivered_symbols += report.delivered_symbols;
        }
        let totals = self.set.totals();
        Ok(PhasedSummary {
            run: ServerSummary {
                elapsed,
                sessions: self.set.session_count(),
                sent_symbols,
                delivered_symbols,
                shares_sent: totals.shares_sent,
                datagrams_received: totals.datagrams_received,
                handoffs: totals.handoff_in,
                send_drops: totals.send_drops,
            },
            window,
        })
    }
}

fn sum_stats(stats: &[Arc<ShardStats>]) -> ShardStatsSnapshot {
    let mut total = ShardStatsSnapshot::default();
    for s in stats {
        total.add(&s.get());
    }
    total
}

/// Send errors that mean "this datagram is dropped" rather than "the
/// server is broken": full socket buffers and kernel-refused datagrams.
fn would_drop(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::OutOfMemory | io::ErrorKind::ConnectionRefused
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_modes_resolve_without_env() {
        assert_eq!(IoMode::Busypoll.resolve().unwrap(), IoBackend::Busypoll);
        #[cfg(target_os = "linux")]
        assert_eq!(IoMode::Epoll.resolve().unwrap(), IoBackend::Epoll);
        #[cfg(not(target_os = "linux"))]
        assert_eq!(
            IoMode::Epoll.resolve().unwrap_err().kind(),
            io::ErrorKind::Unsupported
        );
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in IoBackend::available() {
            assert!(matches!(backend.name(), "epoll" | "busypoll"));
        }
    }

    #[cfg(target_os = "linux")]
    mod timer_grid {
        use super::super::*;

        const FAR: Duration = Duration::from_secs(1);

        #[test]
        fn on_time_pass_waits_for_the_next_whole_millisecond() {
            let mut grid = TimerGrid::new();
            assert!(grid.due(SimTime::ZERO), "the first pass is due at once");
            let t = SimTime::from_micros(3_400);
            grid.passed(t, Some(2));
            assert_eq!(grid.next_pass, SimTime::from_millis(4));
            assert!(!grid.due(SimTime::from_micros(3_999)));
            assert!(grid.due(SimTime::from_millis(4)));
            // A pass exactly on the grid waits a whole millisecond.
            grid.passed(SimTime::from_millis(4), None);
            assert_eq!(grid.next_pass, SimTime::from_millis(5));
        }

        #[test]
        fn pass_that_left_a_tick_due_is_followed_at_once() {
            let mut grid = TimerGrid::new();
            let t = SimTime::from_micros(3_400);
            grid.passed(t, Some(0));
            assert_eq!(grid.next_pass, t);
            assert!(grid.due(t));
            assert_eq!(grid.wait_ms(t, Some(0), FAR), 0);
        }

        #[test]
        fn wait_rounds_up() {
            let mut grid = TimerGrid::new();
            grid.passed(SimTime::from_micros(3_400), Some(1));
            // The grid instant is 0.6 ms away: one whole millisecond.
            assert_eq!(grid.wait_ms(SimTime::from_micros(3_400), Some(1), FAR), 1);
            // A timer beyond the grid instant sets the wait.
            assert_eq!(grid.wait_ms(SimTime::from_micros(3_400), Some(7), FAR), 7);
            // A timer already due waits for the grid instant.
            assert_eq!(grid.wait_ms(SimTime::from_micros(3_900), Some(0), FAR), 1);
            // No timer at all: the 25 ms cap.
            assert_eq!(grid.wait_ms(SimTime::from_micros(3_400), None, FAR), 25);
            // A deadline 0.3 ms away is slept to, not spun towards.
            let near = Duration::from_micros(300);
            assert_eq!(grid.wait_ms(SimTime::from_micros(3_400), None, near), 1);
            assert_eq!(grid.wait_ms(SimTime::from_millis(4), Some(0), near), 0);
        }

        #[test]
        fn wait_is_never_zero_while_everything_lies_ahead() {
            let mut grid = TimerGrid::new();
            for pass_us in (0..5_000).step_by(37) {
                let t = SimTime::from_micros(pass_us);
                grid.passed(t, Some(1));
                for later_us in [0, 1, 250, 999] {
                    let now = SimTime::from_micros(pass_us + later_us);
                    if grid.due(now) {
                        continue;
                    }
                    for timer_ms in [None, Some(1), Some(2), Some(30)] {
                        for deadline_us in [1, 999, 1_000, 1_001, 60_000] {
                            let until = Duration::from_micros(deadline_us);
                            let wait = grid.wait_ms(now, timer_ms, until);
                            assert!(wait > 0, "{now:?} {timer_ms:?} {until:?}");
                            assert!(wait <= MAX_SLEEP_MS);
                        }
                    }
                }
            }
        }
    }
}
