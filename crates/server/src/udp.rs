//! The socket-facing server: every shard runs on its own thread with
//! its **own** per-channel sockets, organized as `SO_REUSEPORT`
//! groups so the kernel delivers most datagrams straight to the shard
//! that owns the connection.
//!
//! # Socket topology
//!
//! Each protocol channel is one `SO_REUSEPORT` group: every shard
//! contributes a B-side member socket bound to the channel's shared
//! port, and owns an A-side socket connected to that port. Linux
//! routes an inbound datagram to a group member by hashing the source
//! address, so a given A socket maps to one *stable* member. At
//! startup the server probes that mapping and rebinds colliding A
//! sockets until (nearly) every shard's A socket lands on its own
//! member — after which share traffic for shard *i*'s sessions arrives
//! on shard *i*'s socket without crossing a thread boundary. The
//! bounded handoff queues of [`Shard`] remain as
//! the rare-path escape hatch (hash collisions the calibration could
//! not untangle). On non-Linux hosts each "group"
//! degenerates to a plain per-shard cross-connected loopback pair with
//! the same ownership layout.
//!
//! # Event loop backends
//!
//! * **epoll** (Linux, default): each shard sleeps in `epoll_wait` on
//!   its sockets plus an `eventfd` doorbell peers ring when they hand
//!   off a frame; the timeout comes from the shard timer wheel's next
//!   deadline, so an idle shard costs nothing. Datagram I/O is batched
//!   through `recvmmsg`/`sendmmsg` ([`sys::BATCH`] messages per
//!   syscall), and a message is a *train* wherever one forms: every
//!   share frame of a server has one length (one `ProtocolConfig`), so
//!   the shares a pass queues on one channel — one from each of many
//!   sessions — leave as a few `UDP_SEGMENT` messages and, the reading
//!   sockets having `UDP_GRO` set, arrive as a few (see [`crate::sys`]).
//!   The kernel's per-packet path then runs once per train, not once
//!   per share.
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
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
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
    /// GSO/GRO trains, eventfd cross-shard doorbells.
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

/// One shard's endpoint sockets for one protocol channel.
#[derive(Debug)]
struct ShardChannel {
    /// A-side socket, connected to the channel's B destination.
    a: UdpSocket,
    /// The B-group member this shard reads (shares arrive here).
    b: UdpSocket,
    /// Where control sent *from* B goes: this shard's own A socket.
    a_addr: SocketAddrV4,
    /// Whether `b` is connected (plain pair fallback) or a reuseport
    /// group member that must `send_to` explicitly.
    b_connected: bool,
}

impl ShardChannel {
    /// The socket inbound traffic *to* `endpoint` arrives on.
    fn recv_sock(&self, to: Endpoint) -> &UdpSocket {
        match to {
            Endpoint::A => &self.a,
            Endpoint::B => &self.b,
        }
    }

    /// Sends one datagram originated by `from`.
    fn send_from(&self, from: Endpoint, bytes: &[u8]) -> io::Result<usize> {
        match from {
            Endpoint::A => self.a.send(bytes),
            Endpoint::B if self.b_connected => self.b.send(bytes),
            Endpoint::B => self.b.send_to(bytes, self.a_addr),
        }
    }
}

/// All sockets one shard thread owns: one [`ShardChannel`] per
/// protocol channel.
#[derive(Debug)]
struct ShardIo {
    channels: Vec<ShardChannel>,
}

fn v4(addr: SocketAddr) -> SocketAddrV4 {
    match addr {
        SocketAddr::V4(a) => a,
        SocketAddr::V6(_) => unreachable!("server sockets are IPv4 loopback"),
    }
}

fn endpoint_idx(e: Endpoint) -> usize {
    match e {
        Endpoint::A => 0,
        Endpoint::B => 1,
    }
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

/// Portable topology: independent cross-connected loopback pairs, one
/// per (shard, channel), so the owner alignment is exact by
/// construction.
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
            let a_addr = v4(a.local_addr()?);
            per_channel.push(ShardChannel {
                a,
                b,
                a_addr,
                b_connected: true,
            });
        }
        ios.push(ShardIo {
            channels: per_channel,
        });
    }
    Ok(ios)
}

/// Builds the per-shard socket layout: reuseport groups with probed
/// owner alignment on Linux, plain pairs elsewhere (or when group
/// setup fails, e.g. under a kernel that forbids `SO_REUSEPORT`).
fn build_topology(shards: usize, channels: usize) -> io::Result<Vec<ShardIo>> {
    #[cfg(target_os = "linux")]
    {
        if let Ok(ios) = reuseport_topology(shards, channels) {
            return Ok(ios);
        }
    }
    paired_topology(shards, channels)
}

#[cfg(target_os = "linux")]
fn reuseport_topology(shards: usize, channels: usize) -> io::Result<Vec<ShardIo>> {
    let mut per_shard: Vec<Vec<ShardChannel>> =
        (0..shards).map(|_| Vec::with_capacity(channels)).collect();
    for _ in 0..channels {
        for (i, (a, b, a_addr)) in reuseport::channel_group(shards)?.into_iter().enumerate() {
            per_shard[i].push(ShardChannel {
                a,
                b,
                a_addr,
                b_connected: false,
            });
        }
    }
    Ok(per_shard
        .into_iter()
        .map(|channels| ShardIo { channels })
        .collect())
}

/// Reuseport group construction and hash calibration.
#[cfg(target_os = "linux")]
mod reuseport {
    use super::*;
    use std::net::Ipv4Addr;

    const PROBE_MAGIC: &[u8; 6] = b"MCSSPR";
    const PROBE_LEN: usize = PROBE_MAGIC.len() + 8;
    /// Rebind attempts per shard while calibrating the kernel's
    /// source-hash → member mapping.
    const MAX_REBINDS: usize = 16;

    fn probe_payload(tag: u64) -> [u8; PROBE_LEN] {
        let mut p = [0u8; PROBE_LEN];
        p[..PROBE_MAGIC.len()].copy_from_slice(PROBE_MAGIC);
        p[PROBE_MAGIC.len()..].copy_from_slice(&tag.to_le_bytes());
        p
    }

    /// Sends one tagged probe from `a` and reports which group member
    /// the kernel delivered it to. Stale datagrams from earlier
    /// attempts are consumed and ignored.
    fn probe_member(
        a: &UdpSocket,
        members: &[Option<UdpSocket>],
        tag: u64,
    ) -> io::Result<Option<usize>> {
        let payload = probe_payload(tag);
        a.send(&payload)?;
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_millis(100);
        loop {
            for (j, member) in members.iter().enumerate() {
                let Some(member) = member.as_ref() else {
                    continue;
                };
                loop {
                    match member.recv(&mut buf) {
                        Ok(len) => {
                            if len == PROBE_LEN && buf[..PROBE_LEN] == payload {
                                return Ok(Some(j));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => return Err(e),
                    }
                }
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn drain_members(members: &[Option<UdpSocket>]) -> io::Result<()> {
        let mut buf = [0u8; 64];
        for member in members.iter().flatten() {
            loop {
                match member.recv(&mut buf) {
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn bind_connected_a(group: SocketAddrV4) -> io::Result<UdpSocket> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        a.connect(group)?;
        a.set_nonblocking(true)?;
        super::tune_socket(&a);
        Ok(a)
    }

    /// One channel's group: `shards` member sockets on a shared port
    /// plus one calibrated A socket per shard, returned as
    /// `(a, member, a_addr)` per shard.
    ///
    /// The kernel picks a member by hashing the sender's address, so
    /// each candidate A socket maps to one stable member. A shard
    /// whose A socket hashes onto an already-claimed member is rebound
    /// (fresh ephemeral port → fresh hash) up to [`MAX_REBINDS`]
    /// times; the rare shard that never finds a free member keeps its
    /// last socket and leans on the cross-shard handoff path instead.
    pub(super) fn channel_group(
        shards: usize,
    ) -> io::Result<Vec<(UdpSocket, UdpSocket, SocketAddrV4)>> {
        let first = sys::reuseport_udp_bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))?;
        super::tune_socket(&first);
        let group = v4(first.local_addr()?);
        let mut members: Vec<Option<UdpSocket>> = vec![Some(first)];
        for _ in 1..shards {
            let member = sys::reuseport_udp_bind(group)?;
            super::tune_socket(&member);
            members.push(Some(member));
        }

        let mut assigned: Vec<Option<usize>> = vec![None; shards];
        let mut claimed = vec![false; shards];
        let mut a_socks: Vec<UdpSocket> = Vec::with_capacity(shards);
        let mut tag = 0u64;
        for (i, slot) in assigned.iter_mut().enumerate() {
            let mut kept: Option<UdpSocket> = None;
            for _ in 0..MAX_REBINDS {
                let a = bind_connected_a(group)?;
                tag += 1;
                match probe_member(&a, &members, tag)? {
                    Some(j) if !claimed[j] => {
                        claimed[j] = true;
                        *slot = Some(j);
                        kept = Some(a);
                        break;
                    }
                    Some(_) => {
                        // Collision: rebinding changes the source port
                        // and thus the hash. Keep the socket in case
                        // every attempt collides.
                        kept = Some(a);
                    }
                    None => {
                        // A probe that never arrives means the group
                        // is not delivering at all; bail so the caller
                        // falls back to plain pairs.
                        if i == 0 {
                            return Err(io::Error::other("reuseport probe undelivered"));
                        }
                        kept = Some(a);
                        break;
                    }
                }
            }
            a_socks.push(kept.expect("at least one bind attempt ran"));
        }
        // Shards the calibration could not align take the unclaimed
        // members in order; their traffic rides the handoff queues.
        let mut unclaimed = (0..shards).filter(|&j| !claimed[j]);
        for slot in &mut assigned {
            if slot.is_none() {
                *slot = Some(
                    unclaimed
                        .next()
                        .expect("one free member per unassigned shard"),
                );
            }
        }
        drain_members(&members)?;

        let mut out = Vec::with_capacity(shards);
        for (i, a) in a_socks.into_iter().enumerate() {
            let j = assigned[i].expect("every shard assigned");
            let b = members[j].take().expect("members assigned exactly once");
            let a_addr = v4(a.local_addr()?);
            out.push((a, b, a_addr));
        }
        Ok(out)
    }
}

/// Cross-shard wakeup doorbells: one eventfd per shard on the epoll
/// backend, nothing elsewhere (busy-polling shards re-check their
/// inboxes every iteration anyway).
#[derive(Debug, Default)]
struct Doorbells {
    #[cfg(target_os = "linux")]
    fds: Vec<sys::EventFd>,
}

impl Doorbells {
    fn for_backend(backend: IoBackend, shards: usize) -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            if backend == IoBackend::Epoll {
                let fds = (0..shards)
                    .map(|_| sys::EventFd::new())
                    .collect::<io::Result<Vec<_>>>()?;
                return Ok(Doorbells { fds });
            }
        }
        let _ = (backend, shards);
        Ok(Doorbells::default())
    }

    /// Wakes every sleeping shard (fatal-error path).
    fn ring_all(&self) {
        #[cfg(target_os = "linux")]
        for fd in &self.fds {
            fd.raise();
        }
    }
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
                    match ch.recv_sock(to).recv(&mut recv_buf) {
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
            match io.channels[datagram.channel].send_from(datagram.from, &datagram.bytes) {
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

/// The readiness-driven event loop: sleep in `epoll_wait` until a
/// socket is readable, a peer rings the doorbell, or the shard timer
/// wheel's next deadline arrives; then move datagrams in
/// `recvmmsg`/`sendmmsg` batches — each message a train where one
/// forms — and flush the ready-set once for the whole wakeup.
#[cfg(target_os = "linux")]
fn run_shard_epoll(
    shard: &mut Shard,
    io: &ShardIo,
    epoch: Instant,
    deadline: Instant,
    stop: &AtomicBool,
    doorbells: &[sys::EventFd],
) -> io::Result<()> {
    const DOORBELL_TOKEN: u64 = u64::MAX;
    /// Sleep cap: the stop flag, wall deadline, and any doorbell edge
    /// lost to a race are all observed within this bound.
    const MAX_SLEEP_MS: u64 = 25;

    let index = shard.index();
    let epoll = sys::Epoll::new()?;
    for (channel, ch) in io.channels.iter().enumerate() {
        epoll.add_readable(ch.a.as_raw_fd(), (channel * 2) as u64)?;
        epoll.add_readable(ch.b.as_raw_fd(), (channel * 2 + 1) as u64)?;
        // Trains arrive whole on every socket this loop reads. A kernel
        // that refuses the option cuts them itself, and `RecvBatch`
        // reads either.
        sys::enable_udp_gro(&ch.a);
        sys::enable_udp_gro(&ch.b);
    }
    epoll.add_readable(doorbells[index].fd(), DOORBELL_TOKEN)?;

    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; io.channels.len() * 2 + 1];
    let mut rx = sys::RecvBatch::new(MAX_DATAGRAM);
    let mut tx = sys::SendBatch::new();
    // Outbound staging, keyed by channel × originating endpoint so each
    // sendmmsg batch shares one (socket, destination) and a queue's
    // equal-length neighbours can leave as one train.
    let mut stage: Vec<Vec<Vec<u8>>> = (0..io.channels.len() * 2).map(|_| Vec::new()).collect();
    let mut peer_pending = vec![false; doorbells.len()];
    // The first pass scans every socket; afterwards only sockets epoll
    // reported ready are visited.
    let mut ready_tokens: Vec<u64> = (0..(io.channels.len() * 2) as u64).collect();
    // Whether the doorbell needs clearing: on the first pass (a peer may
    // have rung before this loop existed) and after every wait that
    // reported it.
    let mut rung = true;

    loop {
        // Ring, then read: the doorbell is read only when it rang. The
        // epoll registration is level-triggered, so a raised eventfd is
        // reported by every wait until it is read — a raise is never
        // missed for not having been looked for. And the clear still
        // precedes the drain: a raise that slips in between the two
        // leaves the counter up over an inbox already emptied, which
        // costs one spurious (cheap) wakeup; a raise can never be
        // cleared with its handoff left behind.
        if rung {
            doorbells[index].clear();
        }
        let now = sim_now(epoch);
        shard.drain_inbox(now);
        shard.poll_timers(now);
        shard.drain_returns();

        for &token in &ready_tokens {
            let channel = (token / 2) as usize;
            let to = if token % 2 == 0 {
                Endpoint::A
            } else {
                Endpoint::B
            };
            let fd = io.channels[channel].recv_sock(to).as_raw_fd();
            loop {
                match rx.recv(fd) {
                    Ok(n) => {
                        ShardStats::bump(&shard.stats().syscalls_recv);
                        ShardStats::bump_by(&shard.stats().messages_received, n as u64);
                        let now = sim_now(epoch);
                        for i in 0..n {
                            for datagram in rx.datagrams(i) {
                                if let Some(owner) =
                                    shard.route_datagram(now, channel, to, datagram)
                                {
                                    peer_pending[owner] = true;
                                }
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
        for (owner, pending) in peer_pending.iter_mut().enumerate() {
            if *pending {
                *pending = false;
                if owner != index {
                    doorbells[owner].raise();
                }
            }
        }

        while let Some(datagram) = shard.pop_outbound() {
            stage[datagram.channel * 2 + endpoint_idx(datagram.from)].push(datagram.bytes);
        }
        for (key, bufs) in stage.iter_mut().enumerate() {
            if bufs.is_empty() {
                continue;
            }
            let ch = &io.channels[key / 2];
            let (fd, dest) = if key % 2 == 0 {
                (ch.a.as_raw_fd(), None)
            } else if ch.b_connected {
                (ch.b.as_raw_fd(), None)
            } else {
                (ch.b.as_raw_fd(), Some(ch.a_addr))
            };
            let outcome = tx.send_all(fd, bufs, dest, would_drop)?;
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
        let remaining_ms = (deadline - wall).as_millis() as u64;
        let timer_ms = shard.timer_sleep_ms(sim_now(epoch)).unwrap_or(u64::MAX);
        let timeout_ms = MAX_SLEEP_MS.min(remaining_ms).min(timer_ms);

        ShardStats::bump(&shard.stats().wakeups);
        let n = epoll.wait(&mut events, timeout_ms as i32)?;
        ready_tokens.clear();
        rung = false;
        for event in &events[..n] {
            if event.data == DOORBELL_TOKEN {
                rung = true;
            } else {
                ready_tokens.push(event.data);
            }
        }
    }
}

fn run_shard(
    backend: IoBackend,
    shard: &mut Shard,
    io: &ShardIo,
    epoch: Instant,
    deadline: Instant,
    stop: &AtomicBool,
    doorbells: &Doorbells,
) -> io::Result<()> {
    match backend {
        IoBackend::Busypoll => {
            let _ = doorbells;
            run_shard_busypoll(shard, io, epoch, deadline, stop)
        }
        IoBackend::Epoll => {
            #[cfg(target_os = "linux")]
            {
                run_shard_epoll(shard, io, epoch, deadline, stop, &doorbells.fds)
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
    /// pools warm, reuseport routing settles).
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
        let topology = build_topology(set.num_shards(), channels)?;
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
        let doorbells = Doorbells::for_backend(backend, self.set.num_shards())?;
        let stop = AtomicBool::new(false);
        let first_error: Mutex<Option<io::Error>> = Mutex::new(None);
        let deadline = Instant::now() + phases.total();
        let set = &mut self.set;
        let topology = &self.topology;
        let mut window = WindowStats::default();
        std::thread::scope(|scope| {
            let doorbells = &doorbells;
            let stop = &stop;
            let first_error = &first_error;
            for (shard, io) in set.shards_mut().iter_mut().zip(topology.iter()) {
                scope.spawn(move || {
                    if let Err(e) = run_shard(backend, shard, io, epoch, deadline, stop, doorbells)
                    {
                        first_error.lock().unwrap().get_or_insert(e);
                        stop.store(true, Ordering::Relaxed);
                        doorbells.ring_all();
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

    /// The calibrated reuseport topology must deliver each shard's
    /// A-originated traffic to that shard's own member socket.
    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_topology_routes_to_owner() {
        let shards = 4;
        let Ok(ios) = reuseport_topology(shards, 1) else {
            // Kernel without usable SO_REUSEPORT: the server falls
            // back to pairs; nothing to assert here.
            return;
        };
        let mut buf = [0u8; 64];
        let mut aligned = 0;
        for (i, io_i) in ios.iter().enumerate() {
            let ch = &io_i.channels[0];
            ch.a.send(b"ownership-probe").unwrap();
            std::thread::sleep(Duration::from_millis(5));
            let mut got_own = false;
            for io_j in &ios {
                let other = &io_j.channels[0];
                while let Ok(len) = other.b.recv(&mut buf) {
                    if &buf[..len] == b"ownership-probe" {
                        got_own = std::ptr::eq(other, ch);
                    }
                }
            }
            if got_own {
                aligned += 1;
            } else {
                // Calibration tolerates residual collisions; they ride
                // the handoff path.
                eprintln!("shard {i} not aligned (handoff path)");
            }
        }
        assert!(
            aligned >= shards - 1,
            "calibration left {} of {shards} shards unaligned",
            shards - aligned
        );
    }
}
