//! The sharded session multiplexer: [`Shard`] owns a partition of the
//! connection-ID space, [`ShardSet`] drives every shard from one thread
//! with deterministic sequencing.
//!
//! A shard owns one [`BufferPool`], one [`Partials`] slab, one
//! [`Scratch`], its sockets' [`Backlogs`] and one [`HostCpu`] (without a
//! processing-cost model) and lends them to every session it hosts: a
//! session is a
//! pool-less [`EngineCore`], drained the moment an event has run, so
//! each share is written once — demux prefix, header, codec output —
//! into a buffer off the shard's free list and that buffer is the
//! outbound datagram, the reconstructions delivered sit in the same
//! pool, and every session's partial symbols, with the shares parked in
//! them, are entries of the one slab. A session at rest holds no buffer
//! and no partial.
//!
//! Routing is static: connection `cid` lives on shard
//! `cid % num_shards`. A shard that reads a datagram it does not own
//! counts it and names the owner, and takes nothing from its pool;
//! [`ShardSet`], which owns every shard, hands the owner the same
//! borrowed bytes. Shards share no mutable state, so the steady state
//! allocates nothing whichever shard reads (see the `wrong_shard_zero_alloc`
//! regression test).
//!
//! [`ShardSet`] is the sans-I/O core of the server: events carry
//! explicit [`SimTime`] stamps and each session draws its schedule from
//! its own seeded RNG (the model stream) and its shares from the set's
//! one secret [`ShareKey`] under its connection ID (the share stream),
//! so the same event sequence under the same key replays
//! bit-identically — the determinism pin replays recorded
//! single-session traces through this demux path and compares action
//! streams. The socket-facing [`UdpServer`](crate::udp::UdpServer)
//! wraps the same shards in threads.

use std::collections::VecDeque;
use std::sync::Arc;

use mcss_base::hash::IntMap;
use mcss_base::{BufferPool, Endpoint, EventQueue, QueueKind, SimTime};
use mcss_codec::{CodecId, ShareKey};
use mcss_obs::{CounterSnapshot, GaugeSnapshot, MetricsSnapshot};
use mcss_remicss::actions::{Action, Event};
use mcss_remicss::config::ProtocolConfig;
use mcss_remicss::cpu::HostCpu;
use mcss_remicss::engine::{Backlogs, EngineCore, Lent, Scratch, SessionReport, SourceMode};
use mcss_remicss::metrics::HostMetrics;
use mcss_remicss::reassembly::Partials;
use mcss_remicss::wire::{demux_frame, put_cid_prefix, DemuxFrame, WireError, CID_PREFIX_BYTES};
use rand::rngs::StdRng;
use rand::SeedableRng as _;

use crate::stats::{ShardStats, ShardStatsSnapshot};

/// Largest datagram the server will read: no frame the protocol emits
/// is longer (7-byte demux prefix + 24-byte share header + a payload
/// whose length is a 16-bit field).
pub const MAX_DATAGRAM: usize = 65_535;

/// Sizing knobs for a shard set.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shards (worker partitions). Clamped to at least 1.
    pub shards: usize,
    /// I/O backend for the socket-facing driver ([`UdpServer`]); the
    /// deterministic [`ShardSet`] core never performs I/O and ignores
    /// it.
    ///
    /// [`UdpServer`]: crate::udp::UdpServer
    pub io: crate::udp::IoMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 1,
            io: crate::udp::IoMode::Auto,
        }
    }
}

impl ServerConfig {
    /// A config with `shards` shards and the default I/O backend.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ServerConfig {
            shards,
            ..ServerConfig::default()
        }
    }
}

/// Errors from session registration.
#[derive(Debug)]
pub enum ServerError {
    /// The connection ID is already registered.
    DuplicateCid(u32),
    /// The engine rejected the protocol parameters.
    Protocol(mcss_core::ModelError),
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::DuplicateCid(cid) => write!(f, "connection id {cid} already registered"),
            ServerError::Protocol(e) => write!(f, "invalid protocol parameters: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<mcss_core::ModelError> for ServerError {
    fn from(e: mcss_core::ModelError) -> Self {
        ServerError::Protocol(e)
    }
}

/// One encoded datagram a shard wants on the wire, demux prefix
/// included. `bytes` is the pooled buffer the session's engine wrote the
/// frame into and must go back via [`Shard::recycle_outbound`] (or
/// [`Shard::drain_outbound`], which recycles automatically).
#[derive(Debug)]
pub struct OutboundDatagram {
    /// The sending session's connection ID.
    pub cid: u32,
    /// Channel to transmit on.
    pub channel: usize,
    /// Sending endpoint.
    pub from: Endpoint,
    /// The full datagram: `"RX"` prefix + inner frame.
    pub bytes: Vec<u8>,
}

/// One multiplexed session: the pool-less engine plus the per-session
/// state a driver owns (RNG, delivery queue, optional action log).
///
/// Laid out as declared: what the shard reads to find, feed and drain a
/// session comes first, on the cache lines just ahead of the fields its
/// engine reads first (the `a_slot_leads_with_what_the_shard_reads` test
/// pins it).
#[derive(Debug)]
#[repr(C)]
struct SessionSlot {
    cid: u32,
    /// The demux prefix naming this session, which its engine starts
    /// every frame with.
    prefix: [u8; CID_PREFIX_BYTES],
    record: bool,
    /// High-water mark of the engine's `delivered_total` already
    /// charged to the shard's `symbols_delivered` counter. Paced
    /// sources reconstruct without emitting `DeliverSymbol`, so the
    /// shard accounts deliveries by counter delta, not by action.
    counted_delivered: u64,
    delivered: VecDeque<(u64, Vec<u8>)>,
    rng: StdRng,
    engine: EngineCore,
    action_log: Vec<Action>,
}

/// Slots per chunk of a [`SessionSlab`]: a power of two (the index
/// splits by shift and mask); a chunk of 616 B slots is ≈ 39 KB.
const CHUNK_SLOTS: usize = 64;

/// A shard's sessions in creation order, found by position.
///
/// The slots sit inline in chunks of [`CHUNK_SLOTS`], so neighbours in
/// creation order are neighbours in memory, and a fleet that doubles
/// adds chunks without moving a session. A single `Vec` of slots
/// re-copies (and re-faults) the whole fleet at every doubling — most
/// of the time it takes to register ten thousand sessions — and holds
/// up to twice what it uses. Append-only: sessions are never removed,
/// so a position is for life (close/evict will need a free list and a
/// generation).
#[derive(Debug, Default)]
struct SessionSlab {
    /// Every chunk but the last is full; none grows past its capacity.
    chunks: Vec<Vec<SessionSlot>>,
}

impl SessionSlab {
    fn push(&mut self, slot: SessionSlot) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK_SLOTS => last.push(slot),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_SLOTS);
                chunk.push(slot);
                self.chunks.push(chunk);
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = &SessionSlot> {
        self.chunks.iter().flatten()
    }
}

impl std::ops::Index<u32> for SessionSlab {
    type Output = SessionSlot;

    fn index(&self, position: u32) -> &SessionSlot {
        &self.chunks[position as usize / CHUNK_SLOTS][position as usize % CHUNK_SLOTS]
    }
}

impl std::ops::IndexMut<u32> for SessionSlab {
    fn index_mut(&mut self, position: u32) -> &mut SessionSlot {
        &mut self.chunks[position as usize / CHUNK_SLOTS][position as usize % CHUNK_SLOTS]
    }
}

/// One worker partition: the sessions it owns and their shared buffer
/// pool, partial slab, scratch, timer wheel and protocol metrics. It
/// shares no mutable state with its peers.
#[derive(Debug)]
pub struct Shard {
    index: usize,
    num_shards: usize,
    /// The sessions, in creation order. A session is found once per
    /// event — connection ID to position through `by_cid` — and by
    /// position from then on: the timer wheel carries positions.
    sessions: SessionSlab,
    /// Position in `sessions` of each connection ID. Nine bytes a
    /// session, so probing for an unknown cid touches no session state.
    by_cid: IntMap<u32, u32>,
    /// The protocol counters and distributions every session of this
    /// shard records into: one set per channel count hosted. They
    /// describe the channels, not the sessions, so a session adds none
    /// (a set is 15 KB per histogram, `2n + 1` of them).
    metrics: Vec<Arc<HostMetrics>>,
    /// Every buffer of the shard and its sessions but the parked
    /// shares: outbound frames, reconstructions.
    pool: BufferPool,
    /// Every session's partial symbols with their parked shares, each
    /// linked into its own table's list.
    partials: Partials,
    /// The key every session's shares are drawn under, each on the
    /// stream of its connection ID: the set's one key.
    key: ShareKey,
    /// What a symbol is scheduled and split in, lent to whichever
    /// session is transmitting.
    scratch: Scratch,
    /// The send backlog of each of the shard's channels, which every
    /// session's scheduler reads.
    backlogs: Backlogs,
    /// The shard's processors, which every session's work is charged
    /// to: modelless, so they charge nothing and shed nothing.
    cpu: HostCpu,
    /// Pending timers, each the `(position, token)` of its session.
    timers: EventQueue<(u32, u64)>,
    timer_seq: u64,
    /// Scratch of [`Shard::poll_timers`]: the `(position, token)` of the
    /// timers due this call; retained so polling allocates nothing.
    due: Vec<(u32, u64)>,
    outbound: VecDeque<OutboundDatagram>,
    stats: Arc<ShardStats>,
}

impl Shard {
    fn new(index: usize, num_shards: usize, key: ShareKey) -> Self {
        Shard {
            index,
            num_shards,
            sessions: SessionSlab::default(),
            by_cid: IntMap::default(),
            metrics: Vec::new(),
            pool: BufferPool::new(),
            partials: Partials::default(),
            key,
            scratch: Scratch::default(),
            backlogs: Backlogs::default(),
            cpu: HostCpu::default(),
            timers: EventQueue::new(QueueKind::Wheel),
            timer_seq: 0,
            due: Vec::new(),
            outbound: VecDeque::new(),
            stats: Arc::default(),
        }
    }

    /// This shard's position in the set.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Sessions this shard owns.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.by_cid.len()
    }

    /// Sessions this shard owns that encode with `codec`.
    #[must_use]
    pub fn codec_session_count(&self, codec: CodecId) -> usize {
        self.sessions
            .iter()
            .filter(|slot| slot.engine.codec() == codec)
            .count()
    }

    /// Live counters (shared with metric aggregators).
    #[must_use]
    pub fn stats(&self) -> &Arc<ShardStats> {
        &self.stats
    }

    /// The protocol metrics this shard's sessions record into, one set
    /// per channel count hosted, in the order first hosted (shared with
    /// metric aggregators, like [`stats`](Shard::stats)).
    #[must_use]
    pub fn metrics(&self) -> &[Arc<HostMetrics>] {
        &self.metrics
    }

    /// The shard's buffer pool, which its sessions' engines borrow (its
    /// hit/miss/grow counters witness the zero-allocation steady state,
    /// and what it holds is the shard's buffer memory).
    #[must_use]
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The slab the shard's sessions park partial symbols and their
    /// shares in (what it holds is the shard's parked-share memory).
    #[must_use]
    pub fn partials(&self) -> &Partials {
        &self.partials
    }

    /// Connection IDs owned by this shard, in the order registered.
    pub fn cids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sessions.iter().map(|slot| slot.cid)
    }

    /// Where `cid`'s session sits in `sessions`: the one hash lookup of
    /// a call that names a session.
    ///
    /// # Panics
    ///
    /// Panics if no session is registered under `cid`.
    fn position(&self, cid: u32) -> u32 {
        *self
            .by_cid
            .get(&cid)
            .unwrap_or_else(|| panic!("no session with connection id {cid}"))
    }

    /// Feeds `event` to `cid`'s engine and drains what it queued.
    fn feed(&mut self, now: SimTime, cid: u32, event: Event<'_>) {
        let position = self.position(cid);
        self.drive(position, |engine, lent, rng| {
            engine.handle(lent, now, event, rng);
        });
    }

    fn add_session(
        &mut self,
        cid: u32,
        config: Arc<ProtocolConfig>,
        channels: usize,
        source: SourceMode,
        seed: u64,
    ) -> Result<(), ServerError> {
        if self.by_cid.contains_key(&cid) {
            return Err(ServerError::DuplicateCid(cid));
        }
        // The shard's set for this channel count; a new one is kept only
        // once the engine accepted the parameters.
        let hosted = self
            .metrics
            .iter()
            .find(|set| set.channel_count() == channels)
            .cloned();
        let metrics = hosted
            .clone()
            .unwrap_or_else(|| Arc::new(HostMetrics::new(channels)));
        let engine = EngineCore::new(config, channels, source, Arc::clone(&metrics))?;
        if hosted.is_none() {
            self.metrics.push(metrics);
        }
        let mut prefix = Vec::with_capacity(CID_PREFIX_BYTES);
        put_cid_prefix(&mut prefix, cid);
        let position = u32::try_from(self.by_cid.len()).expect("one session per u32 cid");
        self.by_cid.insert(cid, position);
        self.sessions.push(SessionSlot {
            cid,
            prefix: prefix.try_into().expect("a demux prefix is that long"),
            record: false,
            counted_delivered: 0,
            delivered: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            engine,
            action_log: Vec::new(),
        });
        Ok(())
    }

    /// Delivers [`Event::Started`] to `cid` at `now`, arming its
    /// initial timers.
    pub fn start_session(&mut self, now: SimTime, cid: u32) {
        self.feed(now, cid, Event::Started);
    }

    /// Fires one timer event directly, bypassing the shard wheel.
    ///
    /// This is the trace-replay hook: recorded runs carry the exact
    /// timer firing order, and replaying it verbatim keeps the session
    /// bit-identical regardless of how the wheel would batch the same
    /// due times.
    pub fn fire_timer(&mut self, now: SimTime, cid: u32, token: u64) {
        self.stats.timers_fired.add_single_writer(1);
        self.feed(now, cid, Event::TimerFired { token });
    }

    /// Sets `from`'s send backlog on `channel`, which every session of
    /// the shard schedules its next symbols over ([`Backlogs::set`]).
    /// All zero until set.
    ///
    /// # Panics
    ///
    /// As [`Backlogs::set`].
    pub fn set_backlog(&mut self, channel: usize, from: Endpoint, backlog: SimTime) {
        self.backlogs.set(channel, from, backlog);
    }

    /// Offers one symbol payload to an external-source session.
    pub fn offer_symbol(&mut self, now: SimTime, cid: u32, payload: &[u8]) {
        self.feed(now, cid, Event::SymbolReady { payload });
    }

    /// Handles one datagram read by **this** shard. Own frames are
    /// processed in place and the session's actions drained at once. A
    /// frame owned elsewhere is counted as `handoff_out`, takes nothing
    /// from this shard, and its owner's index is returned:
    /// [`ShardSet::deliver_datagram`] hands the same bytes to that
    /// shard. [`UdpServer`](crate::UdpServer)'s shards read only their
    /// own sessions' frames, so none is ever returned there.
    pub fn route_datagram(
        &mut self,
        now: SimTime,
        channel: usize,
        to: Endpoint,
        datagram: &[u8],
    ) -> Option<usize> {
        self.stats.datagrams_received.add_single_writer(1);
        let (cid, inner) = match demux_frame(datagram) {
            Ok(DemuxFrame::Cid { cid, inner }) => (cid, inner),
            // A bare frame names no session, and a shard serves many.
            Ok(DemuxFrame::Legacy(_)) => {
                self.stats.dropped_legacy.add_single_writer(1);
                return None;
            }
            Err(_) => {
                self.stats.dropped_malformed.add_single_writer(1);
                return None;
            }
        };
        let owner = cid as usize % self.num_shards;
        if owner == self.index {
            self.deliver_inner(now, cid, channel, to, inner);
            return None;
        }
        self.stats.handoff_out.add_single_writer(1);
        Some(owner)
    }

    /// Processes a datagram another shard read and
    /// [routed](Shard::route_datagram) here, and drains what it queued.
    fn accept_handoff(&mut self, now: SimTime, channel: usize, to: Endpoint, datagram: &[u8]) {
        self.stats.handoff_in.add_single_writer(1);
        if let Ok(DemuxFrame::Cid { cid, inner }) = demux_frame(datagram) {
            self.deliver_inner(now, cid, channel, to, inner);
        }
    }

    /// Feeds one demuxed inner frame to the owning session and drains
    /// what it queued.
    fn deliver_inner(
        &mut self,
        now: SimTime,
        cid: u32,
        channel: usize,
        to: Endpoint,
        inner: &[u8],
    ) {
        let Some(&position) = self.by_cid.get(&cid) else {
            self.stats.dropped_unknown_cid.add_single_writer(1);
            return;
        };
        let handled = self.drive(position, |engine, lent, rng| {
            engine.handle_frame(lent, now, channel, to, inner, rng)
        });
        match handled {
            Ok(()) => {}
            // Codec-version skew between peers gets its own counter;
            // the frame is dropped either way, never misrouted.
            Err(WireError::UnknownCodec { .. }) => {
                self.stats.dropped_unknown_codec.add_single_writer(1);
            }
            Err(_) => self.stats.dropped_bad_frame.add_single_writer(1),
        }
    }

    /// Fires every timer due at or before `now` from the shard wheel,
    /// draining each session as its timer fires (found by position, no
    /// lookup). The due timers are taken off the wheel first, so one a
    /// drain sets — even for an instant already past — waits for the
    /// next call: a source that fell behind catches up a tick a call,
    /// between receive batches, not in one burst. Returns the number of
    /// timers fired.
    ///
    /// The shard fires whatever is due whenever it is called. When to
    /// call it is the driver's choice: the UDP server's epoll loop calls
    /// it on a millisecond grid (see [`crate::udp`]), while the
    /// busy-poll loop and the in-memory drivers call it every pass and
    /// are unaffected by that grid.
    pub fn poll_timers(&mut self, now: SimTime) -> usize {
        let mut due = std::mem::take(&mut self.due);
        while matches!(self.timers.next_at(), Some(at) if at <= now) {
            let (_, _, timer) = self.timers.pop().expect("peeked entry exists");
            due.push(timer);
        }
        for &(position, token) in &due {
            self.drive(position, |engine, lent, rng| {
                engine.handle(lent, now, Event::TimerFired { token }, rng);
            });
        }
        let fired = due.len();
        self.stats.timers_fired.add_single_writer(fired as u64);
        due.clear();
        self.due = due;
        fired
    }

    /// Timers set and not yet fired, across all of the shard's sessions.
    #[must_use]
    pub fn timers_pending(&self) -> usize {
        self.timers.len()
    }

    /// Milliseconds the event loop may sleep from `now` before the
    /// next shard timer is due (rounded up, 0 when one is due at or
    /// before `now`, `None` when the wheel is empty). The epoll backend
    /// waits the larger of this and the time to its next millisecond
    /// grid instant, and reads a 0 right after a timer pass as a source
    /// catching up; in-memory drivers never sleep on it.
    pub fn timer_sleep_ms(&mut self, now: SimTime) -> Option<u64> {
        self.timers.millis_until_next(now)
    }

    /// Applies `event` to the engine of the session at `position`,
    /// lending it the shard's pool, slab, key, scratch, backlogs and
    /// processors with
    /// the session's prefix and, for its stream id, its connection ID;
    /// then drains its action queue while the slot is still in cache: share
    /// and control frames, which the engine wrote behind the session's
    /// demux prefix into pooled buffers, move to the outbound queue as
    /// they are, timers go onto the shard wheel, reconstructed symbols
    /// park in the session's delivery queue. Returns what `event`
    /// returned.
    fn drive<R>(
        &mut self,
        position: u32,
        event: impl FnOnce(&mut EngineCore, &mut Lent<'_>, &mut StdRng) -> R,
    ) -> R {
        let slot = &mut self.sessions[position];
        let cid = slot.cid;
        let lent = &mut Lent {
            pool: &mut self.pool,
            partials: &mut self.partials,
            prefix: &slot.prefix,
            key: &self.key,
            stream: cid,
            scratch: &mut self.scratch,
            backlogs: &self.backlogs,
            cpu: &mut self.cpu,
        };
        let result = event(&mut slot.engine, lent, &mut slot.rng);
        while let Some(action) = slot.engine.poll_action() {
            if slot.record {
                slot.action_log.push(action.clone());
            }
            match action {
                Action::SendShare {
                    channel,
                    from,
                    frame,
                } => {
                    // The frame left the session: enqueueing outbound is
                    // this driver's send. Transport-level drops are
                    // shard-level counters, not session rejections.
                    slot.engine.share_send_ok(channel);
                    self.outbound.push_back(OutboundDatagram {
                        cid,
                        channel,
                        from,
                        bytes: frame,
                    });
                    self.stats.shares_sent.add_single_writer(1);
                }
                Action::SendControl {
                    channel,
                    from,
                    frame,
                } => {
                    self.outbound.push_back(OutboundDatagram {
                        cid,
                        channel,
                        from,
                        bytes: frame,
                    });
                    self.stats.controls_sent.add_single_writer(1);
                }
                Action::SetTimer { token, at } => {
                    self.timer_seq += 1;
                    self.timers.push(at, self.timer_seq, (position, token));
                }
                Action::DeliverSymbol { seq, payload } => {
                    // Room for one symbol, what a host that pops after
                    // every event ever holds; it grows from there.
                    if slot.delivered.capacity() == 0 {
                        slot.delivered.reserve_exact(1);
                    }
                    slot.delivered.push_back((seq, payload));
                }
            }
        }
        // Paced sources consume reconstructions inside the engine (no
        // DeliverSymbol action), so delivery accounting reads the
        // engine counter's delta — covering both source modes once.
        let delivered = slot.engine.delivered_total();
        self.stats
            .symbols_delivered
            .add_single_writer(delivered - slot.counted_delivered);
        slot.counted_delivered = delivered;
        result
    }

    /// Takes the oldest queued outbound datagram. Pass `bytes` back via
    /// [`recycle_outbound`](Shard::recycle_outbound) once sent.
    pub fn pop_outbound(&mut self) -> Option<OutboundDatagram> {
        self.outbound.pop_front()
    }

    /// Returns an outbound datagram's buffer to the shard pool.
    pub fn recycle_outbound(&mut self, bytes: Vec<u8>) {
        self.pool.put(bytes);
    }

    /// Visits every queued outbound datagram and recycles each buffer
    /// afterwards, counting them as sent.
    pub fn drain_outbound(&mut self, mut visit: impl FnMut(&OutboundDatagram)) {
        while let Some(datagram) = self.outbound.pop_front() {
            self.stats.datagrams_sent.add_single_writer(1);
            visit(&datagram);
            self.pool.put(datagram.bytes);
        }
    }

    /// Takes the oldest reconstructed symbol from `cid`'s delivery
    /// queue. The payload is a buffer of the shard's pool: hand it back
    /// with [`recycle_delivered`](Shard::recycle_delivered).
    pub fn pop_delivered(&mut self, cid: u32) -> Option<(u64, Vec<u8>)> {
        let position = self.position(cid);
        self.sessions[position].delivered.pop_front()
    }

    /// Returns a delivered payload buffer to the shard pool it came from
    /// (whichever of the shard's sessions, `_cid`, delivered it).
    pub fn recycle_delivered(&mut self, _cid: u32, payload: Vec<u8>) {
        self.pool.put(payload);
    }

    /// Starts logging every action `cid`'s engine emits, frames with
    /// the session's demux prefix as emitted (for replay pinning;
    /// cloning frames is test-only overhead, off by default).
    pub fn record_actions(&mut self, cid: u32) {
        let position = self.position(cid);
        self.sessions[position].record = true;
    }

    /// Takes the recorded action log.
    pub fn take_action_log(&mut self, cid: u32) -> Vec<Action> {
        let position = self.position(cid);
        std::mem::take(&mut self.sessions[position].action_log)
    }

    /// The session's report over a measurement `window`.
    #[must_use]
    pub fn report(&self, cid: u32, window: SimTime) -> SessionReport {
        self.sessions[self.position(cid)].engine.report(window)
    }
}

/// Every shard of the server, driven synchronously from one thread.
///
/// All sequencing is explicit — time comes from the caller, and a
/// frame read by the wrong shard is processed by its owner inside
/// [`deliver_datagram`](ShardSet::deliver_datagram) — so a given call
/// sequence produces bit-identical session behaviour on any shard
/// count.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<Shard>,
}

impl ShardSet {
    /// Builds `config.shards` empty shards and one fresh secret
    /// [`ShareKey`] they all draw shares under.
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        let key = ShareKey::generate();
        let n = config.shards.max(1);
        let shards = (0..n).map(|i| Shard::new(i, n, key.clone())).collect();
        ShardSet { shards }
    }

    /// The set with every session's shares drawn under `key` instead:
    /// for tests and pinned traces, which replay share bytes under
    /// [`ShareKey::insecure_from_seed`]. Set it before the first event.
    #[must_use]
    pub fn with_share_key(mut self, key: ShareKey) -> Self {
        for shard in &mut self.shards {
            shard.key = key.clone();
        }
        self
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning connection `cid`.
    #[must_use]
    pub fn shard_of(&self, cid: u32) -> usize {
        cid as usize % self.shards.len()
    }

    /// Read access to one shard.
    #[must_use]
    pub fn shard(&self, index: usize) -> &Shard {
        &self.shards[index]
    }

    /// Mutable access to one shard (the threaded driver moves these
    /// into worker threads instead).
    pub fn shard_mut(&mut self, index: usize) -> &mut Shard {
        &mut self.shards[index]
    }

    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Sessions across all shards.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(Shard::session_count).sum()
    }

    /// Registers a session under `cid` on its owning shard.
    ///
    /// # Errors
    ///
    /// [`ServerError::DuplicateCid`] if `cid` is taken,
    /// [`ServerError::Protocol`] if the engine rejects the config.
    pub fn add_session(
        &mut self,
        cid: u32,
        config: impl Into<Arc<ProtocolConfig>>,
        channels: usize,
        source: SourceMode,
        seed: u64,
    ) -> Result<(), ServerError> {
        let owner = self.shard_of(cid);
        self.shards[owner].add_session(cid, config.into(), channels, source, seed)
    }

    /// Starts session `cid` at `now`.
    pub fn start(&mut self, now: SimTime, cid: u32) {
        let owner = self.shard_of(cid);
        self.shards[owner].start_session(now, cid);
    }

    /// Replay hook: fires `cid`'s timer `token` at `now` directly.
    pub fn fire_timer(&mut self, now: SimTime, cid: u32, token: u64) {
        let owner = self.shard_of(cid);
        self.shards[owner].fire_timer(now, cid, token);
    }

    /// Offers a symbol payload to external-source session `cid`.
    pub fn offer_symbol(&mut self, now: SimTime, cid: u32, payload: &[u8]) {
        let owner = self.shard_of(cid);
        self.shards[owner].offer_symbol(now, cid, payload);
    }

    /// Delivers one datagram as read by shard `received_on`. A frame
    /// that shard does not own is processed by its owner before this
    /// returns, from the same borrowed bytes.
    pub fn deliver_datagram(
        &mut self,
        now: SimTime,
        channel: usize,
        to: Endpoint,
        datagram: &[u8],
        received_on: usize,
    ) {
        if let Some(owner) = self.shards[received_on].route_datagram(now, channel, to, datagram) {
            self.shards[owner].accept_handoff(now, channel, to, datagram);
        }
    }

    /// One duty cycle over every shard: fire due timers.
    pub fn poll(&mut self, now: SimTime) {
        for shard in &mut self.shards {
            shard.poll_timers(now);
        }
    }

    /// Frozen counters for one shard.
    #[must_use]
    pub fn stats(&self, index: usize) -> ShardStatsSnapshot {
        self.shards[index].stats.get()
    }

    /// Counter totals across all shards.
    #[must_use]
    pub fn totals(&self) -> ShardStatsSnapshot {
        let mut total = ShardStatsSnapshot::default();
        for shard in &self.shards {
            total.add(&shard.stats.get());
        }
        total
    }

    /// The snapshot endpoint: per-shard counters under
    /// `server.shard{i}.*`, totals under `server.total.*`, session-count
    /// and timer-wheel-depth gauges, each shard's buffer pool
    /// (`.pool_idle`, `.pool_misses`, `.pool_max_capacity`; the total
    /// takes the largest capacity), and its sessions' protocol metrics:
    /// the counters `server.shard{i}.shares_{sent,dropped,received}.ch{c}`,
    /// `.scheduler.choices` and `.scheduler.km.{k}_{m}`, and the
    /// distributions `.delay.ch{c}`, `.inter_share_gap.ch{c}` (the
    /// channel's delivery inter-arrival time at the shard) and
    /// `.reassembly_residency`, merged across shards under
    /// `server.total.*` — ready to merge with engine metrics or export
    /// as Prometheus text.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        let mut total = ShardStatsSnapshot::default();
        // Channel `c` is the same channel whatever a session's channel
        // count, so a shard's sets merge by channel index.
        let widest = self
            .shards
            .iter()
            .flat_map(|shard| &shard.metrics)
            .map(|set| set.channel_count())
            .max()
            .unwrap_or(0);
        let total_metrics = HostMetrics::new(widest);
        let mut pools = (0, 0, 0);
        for (i, shard) in self.shards.iter().enumerate() {
            let stats = shard.stats.get();
            stats.extend_snapshot(&format!("server.shard{i}"), &mut snapshot);
            let merged = HostMetrics::new(widest);
            for set in &shard.metrics {
                merged.absorb(set);
            }
            merged.extend_snapshot(
                &format!("server.shard{i}"),
                "reassembly_residency",
                &mut snapshot,
            );
            total_metrics.absorb(&merged);
            snapshot.gauges.push(GaugeSnapshot {
                name: format!("server.shard{i}.sessions"),
                value: shard.session_count() as i64,
            });
            snapshot.gauges.push(GaugeSnapshot {
                name: format!("server.shard{i}.timers_pending"),
                value: shard.timers_pending() as i64,
            });
            snapshot.gauges.push(GaugeSnapshot {
                name: format!("server.shard{i}.datagrams_per_syscall"),
                value: datagrams_per_syscall(&stats),
            });
            snapshot.gauges.push(GaugeSnapshot {
                name: format!("server.shard{i}.datagrams_per_message"),
                value: datagrams_per_message(&stats),
            });
            let pool = (
                shard.pool.idle(),
                shard.pool.misses(),
                shard.pool.max_capacity(),
            );
            pool_snapshot(&format!("server.shard{i}"), pool, &mut snapshot);
            pools = (pools.0 + pool.0, pools.1 + pool.1, pools.2.max(pool.2));
            total.add(&stats);
        }
        total.extend_snapshot("server.total", &mut snapshot);
        pool_snapshot("server.total", pools, &mut snapshot);
        total_metrics.extend_snapshot("server.total", "reassembly_residency", &mut snapshot);
        snapshot.gauges.push(GaugeSnapshot {
            name: "server.total.sessions".to_string(),
            value: self.session_count() as i64,
        });
        // Depth of the timer wheels: with demand-armed sweep timers it
        // counts the sessions with something to expire or send, and is 0
        // on an idle fleet.
        snapshot.gauges.push(GaugeSnapshot {
            name: "server.total.timers_pending".to_string(),
            value: self.shards.iter().map(Shard::timers_pending).sum::<usize>() as i64,
        });
        // Per-codec session counts, so an operator sees codec rollouts
        // (and stragglers on the old codec) at a glance.
        for codec in CodecId::ALL {
            let count: usize = self
                .shards
                .iter()
                .map(|s| s.codec_session_count(codec))
                .sum();
            snapshot.gauges.push(GaugeSnapshot {
                name: format!("server.total.sessions_{}", codec.name()),
                value: count as i64,
            });
        }
        snapshot.gauges.push(GaugeSnapshot {
            name: "server.total.datagrams_per_syscall".to_string(),
            value: datagrams_per_syscall(&total),
        });
        snapshot.gauges.push(GaugeSnapshot {
            name: "server.total.datagrams_per_message".to_string(),
            value: datagrams_per_message(&total),
        });
        snapshot
    }

    /// The report of session `cid` over `window`.
    #[must_use]
    pub fn report(&self, cid: u32, window: SimTime) -> SessionReport {
        let owner = self.shard_of(cid);
        self.shards[owner].report(cid, window)
    }
}

/// Exports a buffer pool under `prefix`: its idle buffers, the buffers
/// it ever created, and the largest capacity among them. With one pool
/// per shard, that is what the server holds in buffers, but for the
/// shares parked in its partial slab.
fn pool_snapshot(
    prefix: &str,
    (idle, misses, max_capacity): (usize, u64, usize),
    snapshot: &mut MetricsSnapshot,
) {
    snapshot.counters.push(CounterSnapshot {
        name: format!("{prefix}.pool_misses"),
        value: misses,
    });
    for (name, value) in [("pool_idle", idle), ("pool_max_capacity", max_capacity)] {
        snapshot.gauges.push(GaugeSnapshot {
            name: format!("{prefix}.{name}"),
            value: value as i64,
        });
    }
}

/// Whole datagrams moved per I/O syscall, rounded down — the syscall
/// amortization the batched backends buy (a busy-polling shard sits
/// below 1, which rounds to 0; the raw counters keep full precision).
fn datagrams_per_syscall(stats: &ShardStatsSnapshot) -> i64 {
    let datagrams = stats.datagrams_received + stats.datagrams_sent;
    let syscalls = stats.syscalls_recv + stats.syscalls_send;
    datagrams.checked_div(syscalls).unwrap_or(0) as i64
}

/// Whole datagrams moved per kernel message, rounded down — the mean
/// train length (1 where no train forms, 0 with no socket at all; the
/// raw counters keep full precision).
fn datagrams_per_message(stats: &ShardStatsSnapshot) -> i64 {
    let datagrams = stats.datagrams_received + stats.datagrams_sent;
    let messages = stats.messages_received + stats.messages_sent;
    datagrams.checked_div(messages).unwrap_or(0) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::mem::{offset_of, size_of};

    /// `SessionSlot` is `#[repr(C)]`: what `feed`, `deliver_inner` and
    /// `drive` read of a session (its ID and prefix, the flag, the
    /// delivery accounts, the RNG) lies ahead of the engine, whose own
    /// first bytes are what every event reads, and the action log no
    /// production path writes lies behind it. A field declared after
    /// `engine` is a kilobyte and a half away from the rest.
    #[test]
    fn a_slot_leads_with_what_the_shard_reads() {
        let engine = offset_of!(SessionSlot, engine);
        for (field, offset) in [
            ("cid", offset_of!(SessionSlot, cid)),
            ("prefix", offset_of!(SessionSlot, prefix)),
            ("record", offset_of!(SessionSlot, record)),
            (
                "counted_delivered",
                offset_of!(SessionSlot, counted_delivered),
            ),
            ("delivered", offset_of!(SessionSlot, delivered)),
            ("rng", offset_of!(SessionSlot, rng)),
        ] {
            assert!(
                offset < engine,
                "`{field}` is read on every visit and belongs before `engine` \
                 (byte {engine}); it is declared at byte {offset}"
            );
        }
        assert!(
            engine <= 128,
            "the shard's own fields take {engine} B, more than two cache lines"
        );
        assert!(offset_of!(SessionSlot, action_log) > engine);
        // 1 584 B before the fields were ordered, 1 512 B before the
        // engine's return path was boxed, 984 B before its protocol
        // counters moved to the shard, 880 B before its choice and split
        // planes did, 800 B before its partial symbols did, 736 B before
        // its channel backlogs did, 712 B before its CPU clocks did and its
        // receive meters became sums.
        assert!(
            size_of::<SessionSlot>() <= 616,
            "`SessionSlot` grew to {} B",
            size_of::<SessionSlot>()
        );
    }
}
