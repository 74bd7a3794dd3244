//! Hand-rolled Linux syscall bindings for the readiness-driven event
//! loop: `epoll`, `eventfd`, batched datagram I/O (`recvmmsg` /
//! `sendmmsg`) that moves **trains** (UDP GSO/GRO), and `SO_REUSEPORT`
//! socket-group creation.
//!
//! # Trains
//!
//! One `mmsghdr` is one kernel *message*, and a message is either one
//! datagram or a train of them. [`SendBatch::send_all`] turns a queue of
//! buffers, order kept, into *runs* of one length (see `next_run`) and
//! sends each run as one message whose `msg_iov` points at the run's
//! buffers where they lie, with a `UDP_SEGMENT` control message naming
//! the length: the kernel walks its send path once for the run and cuts
//! it into datagrams at the far end of it. A socket with `UDP_GRO` set
//! ([`enable_udp_gro`]) is handed such a train as one message with the
//! segment length in a control message, and [`RecvBatch::datagrams`]
//! cuts it back into the datagrams that were sent; a socket without it
//! gets the datagrams one by one, cut by the kernel. Nothing on the wire
//! and no datagram's bytes or order change — only how many times the
//! kernel's per-packet path runs. A kernel that refuses a segmented
//! message is sent the same buffers unsegmented, and the [`SendBatch`]
//! remembers the length it refused ([`SendOutcome::refused`]).
//!
//! The build environment vendors no `libc` crate, so the handful of
//! symbols the epoll backend needs are declared here directly against
//! the C library std already links. Everything is gated to
//! `target_os = "linux"` at the module declaration (`lib.rs`); the
//! portable busy-poll backend never touches this module.
//!
//! All `unsafe` in the server crate lives in this file, wrapped in
//! owned types ([`Epoll`], [`EventFd`], [`RecvBatch`], [`SendBatch`])
//! whose public APIs are safe: file descriptors are closed on drop,
//! and the batch types own their buffers, so the pointers handed to
//! the kernel stay valid for exactly the duration of each call.

use std::io;
use std::net::{SocketAddrV4, UdpSocket};
use std::os::fd::{FromRawFd, RawFd};

use std::os::raw::{c_int, c_uint, c_void};

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
/// Readable-readiness interest (level-triggered, the epoll default).
pub const EPOLLIN: u32 = 0x001;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: c_int = 2;
const SOCK_DGRAM: c_int = 2;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;
const SO_REUSEPORT: c_int = 15;
const SOL_UDP: c_int = 17;
/// Send side: a control message (or socket option) giving the length
/// at which the kernel cuts a message into datagrams. Linux 4.18.
const UDP_SEGMENT: c_int = 103;
/// Receive side: a socket option asking for trains whole, and the
/// control message that then carries their segment length. Linux 5.0.
const UDP_GRO: c_int = 104;
const MSG_DONTWAIT: c_int = 0x40;
/// Set by the kernel in `msg_flags` when a control message did not fit.
const MSG_CTRUNC: c_int = 0x08;
const EIO: i32 = 5;
const EINVAL: i32 = 22;
const EMSGSIZE: i32 = 90;
const ENOPROTOOPT: i32 = 92;

/// `struct epoll_event`. Packed on x86 so the 64-bit data field sits
/// at offset 4, matching the kernel ABI.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
pub struct EpollEvent {
    /// `EPOLLIN` et al.
    pub events: u32,
    /// Caller token, returned verbatim on readiness.
    pub data: u64,
}

#[repr(C)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

#[repr(C)]
struct MsgHdr {
    msg_name: *mut c_void,
    msg_namelen: u32,
    msg_iov: *mut IoVec,
    msg_iovlen: usize,
    msg_control: *mut c_void,
    msg_controllen: usize,
    msg_flags: c_int,
}

#[repr(C)]
struct MMsgHdr {
    msg_hdr: MsgHdr,
    msg_len: c_uint,
}

/// `struct cmsghdr`. Its size is a multiple of its alignment, so the
/// data of a control message starts right behind it (`CMSG_DATA`).
#[repr(C)]
#[derive(Clone, Copy)]
struct CmsgHdr {
    cmsg_len: usize,
    cmsg_level: c_int,
    cmsg_type: c_int,
}

/// One control message with a `T` for data, padded by `repr(C)` to the
/// header's alignment: `size_of` is C's `CMSG_SPACE(sizeof(T))` and
/// [`Cmsg::LEN`] its `CMSG_LEN(sizeof(T))`.
#[repr(C)]
#[derive(Clone, Copy)]
struct Cmsg<T> {
    hdr: CmsgHdr,
    data: T,
}

impl<T> Cmsg<T> {
    const LEN: usize = size_of::<CmsgHdr>() + size_of::<T>();
}

/// What a sender attaches to a run: `SOL_UDP`/`UDP_SEGMENT`, a `u16`.
type SegmentCmsg = Cmsg<u16>;
/// What a `UDP_GRO` receiver finds on a train: `SOL_UDP`/`UDP_GRO`, an
/// `int`.
type GroCmsg = Cmsg<c_int>;

#[repr(C)]
#[derive(Clone, Copy)]
struct SockAddrIn {
    sin_family: u16,
    /// Big-endian port.
    sin_port: u16,
    /// Big-endian IPv4 address.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

impl SockAddrIn {
    fn from_v4(addr: SocketAddrV4) -> Self {
        SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
            sin_zero: [0; 8],
        }
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const SockAddrIn, addrlen: u32) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn recvmmsg(
        fd: c_int,
        msgvec: *mut MMsgHdr,
        vlen: c_uint,
        flags: c_int,
        timeout: *mut c_void,
    ) -> c_int;
    fn sendmmsg(fd: c_int, msgvec: *mut MMsgHdr, vlen: c_uint, flags: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `setsockopt` for an option whose value is one `int`; returns what the
/// call returned.
fn set_int_sockopt(fd: RawFd, level: c_int, option: c_int, value: c_int) -> c_int {
    // SAFETY: `value` outlives the call and `optlen` is its size.
    unsafe {
        setsockopt(
            fd,
            level,
            option,
            (&raw const value).cast(),
            size_of::<c_int>() as u32,
        )
    }
}

/// An owned epoll instance: register interest once, then block in
/// [`wait`](Epoll::wait) until a registered fd is ready or the timeout
/// lapses.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers level-triggered readable interest in `fd` under
    /// `token` (returned by [`wait`](Epoll::wait) when `fd` is ready).
    pub fn add_readable(&self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut event) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`0` polls, negative blocks indefinitely). Fills `events`
    /// and returns the count. `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A nonblocking `eventfd`: the cross-shard doorbell. A shard that
/// pushes a handoff onto a sleeping peer's inbox raises the peer's
/// doorbell, which the peer has registered in its epoll set.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd { fd })
    }

    /// The raw descriptor (for epoll registration).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any epoll waiter. A full counter
    /// (`EAGAIN`) already guarantees a pending wakeup, so it is not an
    /// error.
    pub fn raise(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&raw const one).cast(), 8) };
    }

    /// Consumes the counter so the next [`raise`](EventFd::raise) wakes
    /// again. `EAGAIN` (already clear) is fine.
    pub fn clear(&self) {
        let mut buf: u64 = 0;
        unsafe { read(self.fd, (&raw mut buf).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Binds a nonblocking IPv4 UDP socket with `SO_REUSEPORT` set *before*
/// the bind, so several sockets can share one port as a kernel
/// load-balancing group. Returns it as a std [`UdpSocket`].
pub fn reuseport_udp_bind(addr: SocketAddrV4) -> io::Result<UdpSocket> {
    let fd = cvt(unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    // From here the fd must not leak: wrap immediately so errors drop it.
    let sock = unsafe { UdpSocket::from_raw_fd(fd) };
    cvt(set_int_sockopt(fd, SOL_SOCKET, SO_REUSEPORT, 1))?;
    let raw = SockAddrIn::from_v4(addr);
    cvt(unsafe { bind(fd, &raw, size_of::<SockAddrIn>() as u32) })?;
    Ok(sock)
}

/// Best-effort enlargement of a socket's kernel send and receive
/// buffers to `bytes` (the kernel clamps to `net.core.{r,w}mem_max`
/// and doubles for bookkeeping). Many-session servers burst thousands
/// of datagrams per event-loop pass; the 208 KiB default receive
/// buffer silently drops the tail of such a burst long before the mean
/// rate is anywhere near link capacity. Never fails: a refused
/// enlargement just leaves the default in place.
pub fn enlarge_socket_buffers(sock: &UdpSocket, bytes: i32) {
    use std::os::fd::AsRawFd;
    let fd = sock.as_raw_fd();
    for opt in [SO_RCVBUF, SO_SNDBUF] {
        set_int_sockopt(fd, SOL_SOCKET, opt, bytes);
    }
}

/// Asks the kernel to hand `sock` trains whole (`UDP_GRO`): a run sent
/// with `UDP_SEGMENT` then arrives as one message carrying its segment
/// length, for [`RecvBatch::datagrams`] to cut, instead of being cut by
/// the kernel and queued datagram by datagram. Returns whether the
/// kernel took the option; one that does not know it (before 5.0)
/// leaves the socket receiving plain datagrams, which every reader of a
/// [`RecvBatch`] handles the same way.
pub fn enable_udp_gro(sock: &UdpSocket) -> bool {
    use std::os::fd::AsRawFd;
    set_int_sockopt(sock.as_raw_fd(), SOL_UDP, UDP_GRO, 1) == 0
}

/// How many messages one `recvmmsg`/`sendmmsg` call moves at most.
pub const BATCH: usize = 32;

/// Most datagrams the kernel segments out of one message
/// (`UDP_MAX_SEGMENTS` since 4.18; newer kernels allow more).
const MAX_RUN_BUFFERS: usize = 64;
/// Most payload bytes of one UDP/IPv4 message: 65 535 less the IP and
/// UDP headers.
const MAX_RUN_BYTES: usize = 65_507;

/// Reusable scratch for batched receives: `BATCH` message slots filled
/// by one `recvmmsg` syscall. The header arrays are built once — the
/// slots never move — and a call resets only what the kernel writes.
pub struct RecvBatch {
    /// `BATCH` contiguous slots of `slot` bytes each.
    storage: Vec<u8>,
    slot: usize,
    /// One per slot, pointed at by `hdrs`; never read, never resized.
    _iovecs: Vec<IoVec>,
    /// Where the kernel writes slot `i`'s `UDP_GRO` control message.
    /// Never resized: `hdrs` points into it.
    ctrl: Vec<GroCmsg>,
    hdrs: Vec<MMsgHdr>,
}

impl std::fmt::Debug for RecvBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvBatch")
            .field("slot", &self.slot)
            .finish()
    }
}

impl RecvBatch {
    /// Allocates slots of `slot_bytes` each: the longest *message* that
    /// can arrive, which on a `UDP_GRO` socket is a whole train (up to
    /// 65 535 bytes), not one datagram.
    #[must_use]
    pub fn new(slot_bytes: usize) -> Self {
        let mut storage = vec![0u8; BATCH * slot_bytes];
        let empty = GroCmsg {
            hdr: CmsgHdr {
                cmsg_len: 0,
                cmsg_level: 0,
                cmsg_type: 0,
            },
            data: 0,
        };
        let mut ctrl = vec![empty; BATCH];
        let base = storage.as_mut_ptr();
        let mut iovecs: Vec<IoVec> = (0..BATCH)
            .map(|i| IoVec {
                // SAFETY: slot `i` starts `i * slot_bytes` into the
                // `BATCH * slot_bytes` allocation.
                iov_base: unsafe { base.add(i * slot_bytes) }.cast(),
                iov_len: slot_bytes,
            })
            .collect();
        let hdrs = iovecs
            .iter_mut()
            .zip(&mut ctrl)
            .map(|(iovec, cmsg)| MMsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: std::ptr::null_mut(),
                    msg_namelen: 0,
                    msg_iov: iovec,
                    msg_iovlen: 1,
                    msg_control: std::ptr::from_mut(cmsg).cast(),
                    msg_controllen: size_of::<GroCmsg>(),
                    msg_flags: 0,
                },
                msg_len: 0,
            })
            .collect();
        RecvBatch {
            storage,
            slot: slot_bytes,
            _iovecs: iovecs,
            ctrl,
            hdrs,
        }
    }

    /// One `recvmmsg` call on `fd`: returns the number of messages read
    /// (read each one's datagrams via
    /// [`datagrams`](RecvBatch::datagrams)), or the socket error
    /// (`WouldBlock` when drained).
    pub fn recv(&mut self, fd: RawFd) -> io::Result<usize> {
        for hdr in &mut self.hdrs {
            hdr.msg_hdr.msg_controllen = size_of::<GroCmsg>();
            hdr.msg_hdr.msg_flags = 0;
            hdr.msg_len = 0;
        }
        // SAFETY: every header points at one iovec, one slot of
        // `storage` and one element of `ctrl`, with their true lengths;
        // the three vectors are owned by `self`, never resized after
        // `new`, and borrowed mutably for the call.
        let n = unsafe {
            recvmmsg(
                fd,
                self.hdrs.as_mut_ptr(),
                BATCH as c_uint,
                MSG_DONTWAIT,
                std::ptr::null_mut(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }

    /// The datagrams of message `i` of the last
    /// [`recv`](RecvBatch::recv) (`i` below the returned count), in the
    /// order sent: the message cut at the segment length its `UDP_GRO`
    /// control message gives, the last piece possibly shorter; the whole
    /// message when there is none. An empty message is one empty
    /// datagram. A message whose control data did not fit
    /// (`MSG_CTRUNC`) cannot be cut, and is reported as one empty
    /// datagram for the reader to count as malformed.
    pub fn datagrams(&self, i: usize) -> impl Iterator<Item = &[u8]> {
        let hdr = &self.hdrs[i];
        let truncated = hdr.msg_hdr.msg_flags & MSG_CTRUNC != 0;
        let len = if truncated {
            0
        } else {
            (hdr.msg_len as usize).min(self.slot)
        };
        let message = &self.storage[i * self.slot..i * self.slot + len];
        let cmsg = &self.ctrl[i];
        let is_train = hdr.msg_hdr.msg_controllen >= GroCmsg::LEN
            && cmsg.hdr.cmsg_level == SOL_UDP
            && cmsg.hdr.cmsg_type == UDP_GRO;
        let segment = match usize::try_from(cmsg.data) {
            Ok(segment) if is_train && segment > 0 => segment,
            _ => len.max(1),
        };
        // `chunks` of nothing is nothing: the empty datagram goes first.
        let empty = message.is_empty().then_some(message);
        empty.into_iter().chain(message.chunks(segment))
    }
}

/// How many of the leading buffers, whose lengths `lens` yields, form
/// the next run: the buffers one segmented message carries.
///
/// A run is buffers of one length `L` — its first buffer's — optionally
/// closed by one shorter, non-empty buffer, because that is what the
/// kernel can cut back apart: every segment `L` bytes, the last one
/// whatever is left. It ends after the shorter buffer, at
/// 64 buffers, before it would pass 65 507 bytes, and before
/// an empty buffer (which adds nothing to a message, so it travels
/// alone); with `L` at or above `refused_at` it is the first buffer
/// alone. The queue's order is kept — sorting by length would make
/// longer runs out of mixed traffic, and reorder a channel's datagrams.
/// Returns 0 only for an empty queue.
fn next_run(lens: impl IntoIterator<Item = usize>, refused_at: usize) -> usize {
    let mut lens = lens.into_iter();
    let Some(first) = lens.next() else {
        return 0;
    };
    if first == 0 || first >= refused_at {
        return 1;
    }
    let (mut buffers, mut bytes) = (1, first);
    for len in lens {
        if buffers == MAX_RUN_BUFFERS || len == 0 || len > first || bytes + len > MAX_RUN_BYTES {
            break;
        }
        buffers += 1;
        bytes += len;
        if len < first {
            break;
        }
    }
    buffers
}

/// Reusable scratch for batched sends: turns a queue of datagram
/// payloads into runs (`next_run`), one message each, and flushes them
/// with as few `sendmmsg` syscalls as the kernel allows — [`BATCH`]
/// messages, so up to `BATCH × 64` datagrams, a call. All scratch is
/// sized at construction; sending allocates nothing.
pub struct SendBatch {
    /// One per staged buffer, a message's run contiguous.
    iovecs: Vec<IoVec>,
    hdrs: Vec<MMsgHdr>,
    /// Message `i`'s `UDP_SEGMENT` control message, attached when its
    /// run is longer than one buffer.
    cmsgs: Vec<SegmentCmsg>,
    /// Destination storage kept alive across the call (one shared
    /// address for the whole batch, or none for connected sockets).
    dest: Option<SockAddrIn>,
    /// Runs form only below this segment length: the shortest the
    /// kernel has refused to segment, `usize::MAX` until it refuses one.
    /// A kernel without `UDP_SEGMENT` refuses the first run and so
    /// brings this under every length in use; a path that cannot carry
    /// a segment length refuses that length and longer ones only.
    refused_at: usize,
}

impl std::fmt::Debug for SendBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendBatch")
            .field("len", &self.hdrs.len())
            .field("refused_at", &self.refused_at)
            .finish()
    }
}

/// Outcome of one [`SendBatch::send_all`] flush.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendOutcome {
    /// Datagrams the kernel accepted.
    pub sent: usize,
    /// Datagrams refused by transient backpressure (dropped, UDP
    /// semantics).
    pub dropped: usize,
    /// Messages the kernel accepted, each one datagram or one train:
    /// `sent ÷ messages` is the mean train length.
    pub messages: u64,
    /// Segmented messages the kernel refused to segment. Their
    /// datagrams were sent again one by one — they are in `sent`, not
    /// in `dropped`.
    pub refused: u64,
    /// `sendmmsg` calls issued, refused ones included.
    pub syscalls: u64,
}

impl SendBatch {
    /// Creates the scratch: [`BATCH`] headers and control messages and
    /// `BATCH × 64` iovecs, ≈ 35 KB.
    #[must_use]
    pub fn new() -> Self {
        let segment = SegmentCmsg {
            hdr: CmsgHdr {
                cmsg_len: SegmentCmsg::LEN,
                cmsg_level: SOL_UDP,
                cmsg_type: UDP_SEGMENT,
            },
            data: 0,
        };
        SendBatch {
            iovecs: Vec::with_capacity(BATCH * MAX_RUN_BUFFERS),
            hdrs: Vec::with_capacity(BATCH),
            cmsgs: vec![segment; BATCH],
            dest: None,
            refused_at: usize::MAX,
        }
    }

    /// Sends every payload in `bufs` on `fd` (all to `dest`, or to the
    /// socket's connected peer when `dest` is `None`) as the same
    /// datagrams in the same order, each run of them one message,
    /// resuming at the first unsent run after a partial batch. A run
    /// the kernel refuses to segment is sent again unsegmented. Transient
    /// refusals (`would_drop`) drop the remaining tail and are tallied,
    /// any other error is returned.
    pub fn send_all(
        &mut self,
        fd: RawFd,
        bufs: &[Vec<u8>],
        dest: Option<SocketAddrV4>,
        would_drop: impl Fn(&io::Error) -> bool,
    ) -> io::Result<SendOutcome> {
        let mut outcome = SendOutcome::default();
        self.dest = dest.map(SockAddrIn::from_v4);
        let (name, name_len) = match &mut self.dest {
            Some(addr) => (
                std::ptr::from_mut(addr).cast::<c_void>(),
                size_of::<SockAddrIn>() as u32,
            ),
            None => (std::ptr::null_mut(), 0),
        };
        let mut off = 0;
        while off < bufs.len() {
            self.iovecs.clear();
            self.hdrs.clear();
            let mut staged = off;
            while staged < bufs.len() && self.hdrs.len() < BATCH {
                let run = next_run(bufs[staged..].iter().map(Vec::len), self.refused_at);
                for buf in &bufs[staged..staged + run] {
                    self.iovecs.push(IoVec {
                        // sendmmsg never writes through the iovec; the
                        // mutable pointer is only demanded by the C type.
                        iov_base: buf.as_ptr().cast_mut().cast(),
                        iov_len: buf.len(),
                    });
                }
                // A run longer than one buffer carries its segment
                // length; a run of one is a plain message.
                let control_len = if run > 1 {
                    self.cmsgs[self.hdrs.len()].data = u16::try_from(bufs[staged].len())
                        .expect("a run's segment is shorter than a message");
                    size_of::<SegmentCmsg>()
                } else {
                    0
                };
                self.hdrs.push(MMsgHdr {
                    msg_hdr: MsgHdr {
                        msg_name: name,
                        msg_namelen: name_len,
                        // Both pointers are set below, once every iovec
                        // and control message is in place.
                        msg_iov: std::ptr::null_mut(),
                        msg_iovlen: run,
                        msg_control: std::ptr::null_mut(),
                        msg_controllen: control_len,
                        msg_flags: 0,
                    },
                    msg_len: 0,
                });
                staged += run;
            }
            let mut iovec = self.iovecs.as_mut_ptr();
            for (hdr, cmsg) in self.hdrs.iter_mut().zip(&mut self.cmsgs) {
                let hdr = &mut hdr.msg_hdr;
                hdr.msg_iov = iovec;
                // SAFETY: the headers' `msg_iovlen` sum to
                // `iovecs.len()`, so this stays inside the vector (one
                // past its end after the last header).
                iovec = unsafe { iovec.add(hdr.msg_iovlen) };
                if hdr.msg_controllen != 0 {
                    hdr.msg_control = std::ptr::from_mut(cmsg).cast();
                }
            }
            // SAFETY: each header points at `msg_iovlen` iovecs of
            // `self.iovecs`, each of which covers one buffer of `bufs`;
            // at an element of `self.cmsgs` of the stated size, or
            // none; and at `self.dest`, or none. All of these are
            // borrowed for the whole call and not touched during it.
            let n = unsafe {
                sendmmsg(
                    fd,
                    self.hdrs.as_mut_ptr(),
                    self.hdrs.len() as c_uint,
                    MSG_DONTWAIT,
                )
            };
            outcome.syscalls += 1;
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                // The error belongs to the first message. If that was a
                // train, the kernel (no `UDP_SEGMENT`, checksums off on
                // the socket, a segment over the path MTU, a device that
                // cannot checksum) will not segment this length: form no
                // run of it again, and send these buffers one by one.
                let first = &self.hdrs[0].msg_hdr;
                if first.msg_controllen != 0
                    && matches!(
                        err.raw_os_error(),
                        Some(EINVAL | EIO | ENOPROTOOPT | EMSGSIZE)
                    )
                {
                    self.refused_at = self.refused_at.min(bufs[off].len());
                    outcome.refused += 1;
                    continue;
                }
                if would_drop(&err) {
                    outcome.dropped += bufs.len() - off;
                    return Ok(outcome);
                }
                return Err(err);
            }
            let accepted = &self.hdrs[..n as usize];
            let datagrams: usize = accepted.iter().map(|h| h.msg_hdr.msg_iovlen).sum();
            outcome.messages += n as u64;
            outcome.sent += datagrams;
            off += datagrams;
        }
        Ok(outcome)
    }
}

impl Default for SendBatch {
    fn default() -> Self {
        SendBatch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;
    use std::os::fd::AsRawFd;

    const SO_NO_CHECK: c_int = 11;

    fn loopback_pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.connect(b.local_addr().unwrap()).unwrap();
        b.connect(a.local_addr().unwrap()).unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        // The trains tests queue a few hundred KB before reading any.
        enlarge_socket_buffers(&a, 4 << 20);
        enlarge_socket_buffers(&b, 4 << 20);
        (a, b)
    }

    /// Everything queued on `sock`, read through a [`RecvBatch`]:
    /// the datagrams in order, and how many messages carried them.
    fn drain_batched(sock: &UdpSocket) -> (Vec<Vec<u8>>, usize) {
        let mut rx = RecvBatch::new(65_535);
        let (mut got, mut messages) = (Vec::new(), 0);
        loop {
            match rx.recv(sock.as_raw_fd()) {
                Ok(n) => {
                    messages += n;
                    for i in 0..n {
                        got.extend(rx.datagrams(i).map(<[u8]>::to_vec));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (got, messages),
                Err(e) => panic!("recvmmsg failed: {e}"),
            }
        }
    }

    /// Everything queued on `sock`, one plain `recv` at a time.
    fn drain_plain(sock: &UdpSocket) -> Vec<Vec<u8>> {
        let mut buf = vec![0u8; 65_535];
        let mut got = Vec::new();
        loop {
            match sock.recv(&mut buf) {
                Ok(len) => got.push(buf[..len].to_vec()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return got,
                Err(e) => panic!("recv failed: {e}"),
            }
        }
    }

    /// Splits `lens` into runs the way `send_all` does.
    fn runs_of(lens: &[usize], refused_at: usize) -> Vec<&[usize]> {
        let mut runs = Vec::new();
        let mut rest = lens;
        while !rest.is_empty() {
            let (run, tail) = rest.split_at(next_run(rest.iter().copied(), refused_at));
            runs.push(run);
            rest = tail;
        }
        runs
    }

    #[test]
    fn eventfd_raises_and_clears() {
        let efd = EventFd::new().unwrap();
        efd.raise();
        efd.raise();
        efd.clear();
        // Cleared: a fresh raise must still wake an epoll waiter.
        let ep = Epoll::new().unwrap();
        ep.add_readable(efd.fd(), 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "counter not clear");
        efd.raise();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
    }

    /// What lets the event loop read its doorbell only when a wait
    /// reported it: the registration is level-triggered, so a raised
    /// doorbell is reported by every wait until it is cleared.
    #[test]
    fn raised_doorbell_is_reported_until_cleared() {
        let efd = EventFd::new().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add_readable(efd.fd(), 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        efd.raise();
        for pass in 0..2 {
            assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1, "wait {pass}");
            assert_eq!({ events[0].data }, 7);
        }
        efd.clear();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "cleared, still up");
    }

    #[test]
    fn epoll_wakes_on_datagram_and_times_out_idle() {
        let (a, b) = loopback_pair();
        let ep = Epoll::new().unwrap();
        ep.add_readable(b.as_raw_fd(), 42).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        // Idle: times out immediately.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        a.send(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
    }

    #[test]
    fn batched_send_and_recv_round_trip() {
        let (a, b) = loopback_pair();
        let payloads: Vec<Vec<u8>> = (0..BATCH + 3).map(|i| vec![i as u8; 16 + i % 7]).collect();
        let mut tx = SendBatch::new();
        let outcome = tx
            .send_all(a.as_raw_fd(), &payloads, None, |_| false)
            .unwrap();
        assert_eq!(outcome.sent, payloads.len());
        assert!(
            outcome.syscalls <= 2 + outcome.refused,
            "{} datagrams should take <= 2 sendmmsg calls, took {}",
            payloads.len(),
            outcome.syscalls
        );
        let (got, _) = drain_batched(&b);
        assert_eq!(got, payloads, "datagrams lost or reordered on loopback");
    }

    #[test]
    fn send_all_to_explicit_destination() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        b.set_nonblocking(true).unwrap();
        let dest = match b.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!(),
        };
        let mut tx = SendBatch::new();
        let bufs = vec![b"hello".to_vec(), b"world".to_vec()];
        let outcome = tx
            .send_all(a.as_raw_fd(), &bufs, Some(dest), |_| false)
            .unwrap();
        assert_eq!(outcome.sent, 2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let (got, _) = drain_batched(&b);
        assert_eq!(got, bufs);
    }

    /// A queue with every shape `next_run` distinguishes: runs, a short
    /// closer, an empty datagram, a 1-byte one, more buffers of one
    /// length than a message takes, and a run that ends on the byte
    /// limit before the buffer limit.
    fn mixed_queue() -> Vec<Vec<u8>> {
        let mut lens = vec![95; 20];
        lens.push(40); // closes the run of 95s
        lens.extend([95; 3]);
        lens.push(0); // travels alone
        lens.extend([95, 95, 1, 1, 1, 200]);
        lens.extend([300; 65]); // 64 + 1
        lens.extend([1_281; 60]); // 51 × 1 281 = 65 331 ≤ 65 507 < 52 × 1 281
        lens.push(7);
        lens.iter()
            .enumerate()
            .map(|(i, &len)| (0..len).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect()
    }

    /// Trains change how datagrams travel, not what arrives: the same
    /// bytes, count and order at a `UDP_GRO` receiver read through
    /// `datagrams` and at a plain socket read one `recv` at a time.
    #[test]
    fn trains_arrive_as_the_datagrams_sent() {
        let queue = mixed_queue();
        for gro in [true, false] {
            let (a, b) = loopback_pair();
            assert!(!gro || enable_udp_gro(&b), "this kernel has no UDP_GRO");
            let mut tx = SendBatch::new();
            let outcome = tx.send_all(a.as_raw_fd(), &queue, None, |_| false).unwrap();
            assert_eq!(outcome.sent, queue.len(), "sent counts datagrams");
            assert_eq!(outcome.dropped, 0);
            if outcome.refused == 0 {
                let lens: Vec<usize> = queue.iter().map(Vec::len).collect();
                assert_eq!(outcome.messages, runs_of(&lens, usize::MAX).len() as u64);
                assert!((outcome.messages as usize) < queue.len());
            } else {
                println!("[skip-gso] this kernel refused to segment");
            }
            if gro {
                let (got, messages) = drain_batched(&b);
                assert_eq!(got.len(), queue.len());
                assert_eq!(got, queue, "gro receiver");
                if outcome.refused == 0 {
                    assert_eq!(messages as u64, outcome.messages, "trains arrive whole");
                }
            } else {
                let got = drain_plain(&b);
                assert_eq!(got.len(), queue.len());
                assert_eq!(got, queue, "plain receiver");
            }
        }
    }

    /// A socket with UDP checksums switched off (`SO_NO_CHECK`) makes
    /// the kernel answer `EINVAL` to every segmented message: the
    /// fallback, on demand. Nothing is lost or reordered, the refusal is
    /// counted, and the batch does not ask again.
    #[test]
    fn refused_segmentation_falls_back_to_datagrams() {
        let queue = mixed_queue();
        let (a, b) = loopback_pair();
        let ret = set_int_sockopt(a.as_raw_fd(), SOL_SOCKET, SO_NO_CHECK, 1);
        assert_eq!(ret, 0, "SO_NO_CHECK");
        let mut tx = SendBatch::new();
        let first = tx.send_all(a.as_raw_fd(), &queue, None, |_| false).unwrap();
        assert!(first.refused >= 1, "{first:?}");
        assert_eq!((first.sent, first.dropped), (queue.len(), 0), "{first:?}");
        assert_eq!(drain_plain(&b), queue, "first flush");
        // The queue's shortest run length is 1 byte, so after the first
        // flush no run forms at all: every message is one datagram.
        let second = tx.send_all(a.as_raw_fd(), &queue, None, |_| false).unwrap();
        assert_eq!(second.refused, 0, "{second:?}");
        assert_eq!(second.messages, queue.len() as u64, "{second:?}");
        assert_eq!(
            second.syscalls,
            queue.len().div_ceil(BATCH) as u64,
            "a refused syscall was issued: {second:?}"
        );
        assert_eq!(drain_plain(&b), queue, "second flush");
    }

    /// An empty datagram is still a datagram: it must reach the reader
    /// (who counts it as malformed), train or no train around it.
    #[test]
    fn empty_message_is_one_empty_datagram() {
        let (a, b) = loopback_pair();
        enable_udp_gro(&b);
        a.send(&[]).unwrap();
        let (got, messages) = drain_batched(&b);
        assert_eq!((got, messages), (vec![Vec::new()], 1));
    }

    #[test]
    fn reuseport_group_shares_one_port() {
        let any = SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0);
        let first = reuseport_udp_bind(any).unwrap();
        let port = match first.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4.port(),
            _ => unreachable!(),
        };
        let again = reuseport_udp_bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
            .expect("second member joins the same port");
        assert_eq!(
            again.local_addr().unwrap().port(),
            port,
            "group members must share the port"
        );
    }

    proptest! {
        /// Run forming as a pure function of the queue's lengths.
        #[test]
        fn runs_partition_the_queue_in_order(
            // Few distinct lengths, so equal neighbours are common; 0,
            // and lengths that cross the byte limit within 64 buffers.
            lens in proptest::collection::vec(
                (0usize..7).prop_map(|i| [0, 1, 40, 95, 96, 1_281, 40_000][i]),
                0..300,
            ),
            refused_at in (0usize..6).prop_map(|i| [usize::MAX, 0, 1, 95, 96, 1_282][i]),
        ) {
            let runs = runs_of(&lens, refused_at);
            prop_assert_eq!(runs.concat(), lens.clone(), "a partition, in order");
            let mut next = 0;
            for run in runs {
                let (&first, &last) = (run.first().unwrap(), run.last().unwrap());
                next += run.len();
                prop_assert!(run.len() <= MAX_RUN_BUFFERS);
                if run.len() == 1 {
                    // Alone because nothing could follow it.
                    let Some(&follower) = lens.get(next) else { continue };
                    prop_assert!(
                        first == 0 || first >= refused_at || follower == 0
                            || follower > first || first + follower > MAX_RUN_BYTES,
                        "{first} could have taken {follower}"
                    );
                    continue;
                }
                prop_assert!(first < refused_at, "a run at a refused length");
                prop_assert!(run[..run.len() - 1].iter().all(|&len| len == first));
                prop_assert!(0 < last && last <= first);
                let bytes: usize = run.iter().sum();
                prop_assert!(bytes <= MAX_RUN_BYTES);
                // Maximal: closed by a shorter buffer, full, or the next
                // buffer is one no run takes.
                let Some(&follower) = lens.get(next) else { continue };
                prop_assert!(
                    last < first || run.len() == MAX_RUN_BUFFERS || follower == 0
                        || follower > first || bytes + follower > MAX_RUN_BYTES,
                    "run of {first} × {} could have taken {follower}", run.len()
                );
            }
        }
    }
}
