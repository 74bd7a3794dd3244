//! The sans-I/O ReMICSS protocol core.
//!
//! [`Engine`] contains every protocol decision — scheduling, Shamir
//! splitting, reassembly, adaptive feedback, pacing, metrics — but
//! performs no I/O, reads no clock, and owns no randomness. A *driver*
//! (the simulator [`Session`](crate::session::Session), or a shard of
//! `mcss-server`'s `UdpServer` on real sockets) feeds it [`Event`]s with
//! explicit timestamps and an explicit RNG, then drains the queued
//! [`Action`]s and performs them against its transport.
//!
//! Randomness comes in two streams. The driver's seeded RNG is the
//! *model stream*: schedule draws, and nothing that must stay secret.
//! Every share's coefficients and pads come from the *share stream*,
//! AES-128 in counter mode under the host's [`ShareKey`], one run of
//! counter blocks per split ([`ShareKey::stream`]), so a share below
//! threshold reveals nothing to someone who knows the seed.
//!
//! Because the engine is a pure function of `(event stream, RNG seed,
//! share key)`, the same inputs always yield the same action stream: a
//! recorded simulator trace replays bit-identically outside the
//! simulator, and the protocol runs unchanged over real UDP sockets.
//!
//! The engine owns no buffer either, unless asked to. [`EngineCore`] is
//! the state machine itself: each call that can emit a frame or park a
//! share borrows from its host a [`Lent`]: the [`BufferPool`], the
//! [`Partials`] slab its reassembly tables park partial symbols and
//! their shares in, the
//! bytes every frame it emits must start with, the share key with the
//! session's stream id, the [`Scratch`] a symbol is drawn and split
//! in, and the host's channel [`Backlogs`] the scheduler reads. So a
//! host of many sessions (a server shard) lends all of them one pool,
//! one slab, one key, one scratch and one set of backlogs and gets
//! frames it can put on the wire as they are. [`Engine`] is that core
//! next to a pool, a slab, a key, a scratch and backlogs of its own and
//! an empty prefix — what a single-session driver wants.
//!
//! Two source modes cover the drivers' needs:
//!
//! * [`SourceMode::Paced`] — the engine generates its own patterned
//!   symbols from a drift-free [`Pacer`] timer, verifying them at the
//!   receiver; this is the measurement workload the simulator runs.
//! * [`SourceMode::External`] — the driver offers real payloads via
//!   [`Event::SymbolReady`] and receives reconstructions back as
//!   [`Action::DeliverSymbol`]; this is what a file transfer uses.

use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

use mcss_base::stats::{DelaySummary, ThroughputMeter};
use mcss_base::{BufferPool, Endpoint, Pacer, SimTime};
use mcss_codec::{CodecId, CodecScratch, ShareKey};
use mcss_core::{ChannelError, MAX_CHANNELS};
use rand::rngs::StdRng;

use mcss_obs::MetricsSnapshot;

use crate::actions::{Action, Event, TIMER_FEEDBACK, TIMER_SOURCE, TIMER_SWEEP};
use crate::adaptive::AdaptiveController;
use crate::config::{ProtocolConfig, SchedulerKind};
use crate::cpu::CpuClock;
use crate::metrics::HostMetrics;
use crate::reassembly::{AcceptOutcome, Partials, ReassemblyCore, ReassemblyStats};
use crate::scheduler::{
    ChannelState, Choice, DynamicScheduler, RoundRobinScheduler, Scheduler as _, SessionScheduler,
    StaticScheduler,
};
use crate::wire::{self, ControlFrame, MessageRef, ShareRef, WireError};

/// How often the receiver reports its delivery count back to the sender
/// when adaptation is enabled.
pub(crate) const FEEDBACK_PERIOD: SimTime = SimTime::from_millis(50);

/// The traffic pattern a session runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Constant symbol rate from A to B for `duration`.
    Cbr {
        /// Offered source symbols per second.
        symbol_rate: f64,
        /// Sending window.
        duration: SimTime,
        /// When the first symbol is offered (default zero).
        phase: SimTime,
    },
    /// Constant symbol rate from A, echoed back by B through the
    /// protocol; A records round-trip times.
    Echo {
        /// Offered source symbols per second.
        symbol_rate: f64,
        /// Sending window.
        duration: SimTime,
        /// When the first symbol is offered (default zero).
        phase: SimTime,
    },
}

impl Workload {
    /// A CBR workload.
    #[must_use]
    pub fn cbr(symbol_rate: f64, duration: SimTime) -> Self {
        Workload::Cbr {
            symbol_rate,
            duration,
            phase: SimTime::ZERO,
        }
    }

    /// An echo workload.
    #[must_use]
    pub fn echo(symbol_rate: f64, duration: SimTime) -> Self {
        Workload::Echo {
            symbol_rate,
            duration,
            phase: SimTime::ZERO,
        }
    }

    /// Offsets the source's first tick to `phase` (later ticks stay on
    /// the same drift-free grid). A multi-session driver staggers
    /// phases across its fleet so thousands of constant-rate sources
    /// don't tick at the same absolute instants — phase-locked fleets
    /// burst hard enough to overflow receive socket buffers while the
    /// mean offered rate is nowhere near capacity.
    #[must_use]
    pub fn with_phase(mut self, at: SimTime) -> Self {
        match &mut self {
            Workload::Cbr { phase, .. } | Workload::Echo { phase, .. } => *phase = at,
        }
        self
    }

    /// When the source offers its first symbol.
    #[must_use]
    pub fn phase(&self) -> SimTime {
        match *self {
            Workload::Cbr { phase, .. } | Workload::Echo { phase, .. } => phase,
        }
    }

    /// The offered source symbol rate.
    #[must_use]
    pub fn symbol_rate(&self) -> f64 {
        match *self {
            Workload::Cbr { symbol_rate, .. } | Workload::Echo { symbol_rate, .. } => symbol_rate,
        }
    }

    /// The sending window.
    #[must_use]
    pub fn duration(&self) -> SimTime {
        match *self {
            Workload::Cbr { duration, .. } | Workload::Echo { duration, .. } => duration,
        }
    }
}

/// Where the engine's symbols come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceMode {
    /// The engine paces its own patterned symbols (simulator
    /// measurement workloads); reconstructions are verified internally
    /// and never surfaced as actions.
    Paced(Workload),
    /// The driver offers payloads with [`Event::SymbolReady`] and takes
    /// reconstructions back via [`Action::DeliverSymbol`]. The sending
    /// window never closes.
    External,
}

impl From<Workload> for SourceMode {
    fn from(workload: Workload) -> Self {
        SourceMode::Paced(workload)
    }
}

/// Everything a finished session reports — the numbers the paper's
/// figures are made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionReport {
    /// Symbols the source offered.
    pub offered_symbols: u64,
    /// Symbols actually split and transmitted.
    pub sent_symbols: u64,
    /// Symbols reconstructed at the receiver within the window.
    pub delivered_symbols: u64,
    /// Reconstructed symbols whose payload failed verification
    /// (must be zero: Shamir reconstruction is exact).
    pub corrupted_symbols: u64,
    /// Achieved payload throughput, bits per second over the window.
    pub achieved_payload_bps: f64,
    /// Achieved symbol rate over the window.
    pub achieved_symbol_rate: f64,
    /// Symbol loss fraction: `1 − (eventually delivered) / sent`.
    /// Counted against *all* deliveries (even after the measurement
    /// window) so that in-flight symbols at window end do not read as
    /// lost; run the simulation past the window before reporting.
    pub loss_fraction: f64,
    /// Mean one-way symbol latency (send to reconstruction).
    pub mean_one_way_delay: Option<SimTime>,
    /// Mean protocol round-trip time (echo workload only).
    pub mean_rtt: Option<SimTime>,
    /// Mean threshold over sent symbols (should approach κ).
    pub mean_k: f64,
    /// Mean multiplicity over sent symbols (should approach μ).
    pub mean_m: f64,
    /// Share frames rejected by local channel queues.
    pub send_queue_drops: u64,
    /// Symbols shed by the sender CPU model.
    pub sender_cpu_shed: u64,
    /// Symbols shed by the receiver CPU model.
    pub receiver_cpu_shed: u64,
    /// Undecodable frames received (must be zero in the simulator).
    pub wire_errors: u64,
    /// Share and control frames that arrived at A of a session that
    /// sends nothing back (neither an echo nor adaptive), dropped unread.
    pub misdirected_frames: u64,
    /// Receiver reassembly-table counters.
    pub reassembly: ReassemblyStats,
    /// Final operating `μ` of the adaptive controller, if enabled.
    pub adaptive_final_mu: Option<f64>,
    /// Number of `μ` adjustments the adaptive controller made.
    pub adaptive_adjustments: u64,
}

fn build_scheduler(
    kind: &SchedulerKind,
    kappa: f64,
    mu: f64,
    n: usize,
) -> Result<SessionScheduler, mcss_core::ModelError> {
    Ok(match kind {
        SchedulerKind::Dynamic => SessionScheduler::Dynamic(DynamicScheduler::new(kappa, mu, n)?),
        SchedulerKind::Static(schedule) => {
            // Shares the schedule; the deep copy lives only in the config.
            SessionScheduler::Static(StaticScheduler::new(Arc::clone(schedule)))
        }
        SchedulerKind::RoundRobin => {
            SessionScheduler::RoundRobin(RoundRobinScheduler::new(kappa, mu, n)?)
        }
    })
}

/// Deterministic payload pattern, verified at the receiver: byte `i` of
/// symbol `seq`. Each byte is the one before plus one, mod 256, so a
/// symbol's pattern is the byte ramp 0, 1, …, 255 started at
/// `pattern_byte(seq, 0)` and repeated every 256 bytes, which is how
/// [`pattern_into`] writes it and [`pattern_matches`] checks it.
#[inline]
fn pattern_byte(seq: u64, i: usize) -> u8 {
    (seq.wrapping_mul(31).wrapping_add(i as u64) & 0xff) as u8
}

/// Two turns of the byte ramp: `RAMP[b..b + 256]` is 256 bytes of the
/// pattern of every symbol whose first byte is `b`.
static RAMP: [u8; 512] = {
    let mut ramp = [0; 512];
    let mut i = 0;
    while i < ramp.len() {
        ramp[i] = i as u8;
        i += 1;
    }
    ramp
};

/// One period of symbol `seq`'s pattern.
fn pattern_period(seq: u64) -> &'static [u8] {
    &RAMP[usize::from(pattern_byte(seq, 0))..][..256]
}

/// Writes the first `len` bytes of symbol `seq`'s pattern into `out`.
fn pattern_into(seq: u64, len: usize, out: &mut Vec<u8>) {
    let period = pattern_period(seq);
    out.clear();
    out.reserve(len);
    for start in (0..len).step_by(period.len()) {
        out.extend_from_slice(&period[..(len - start).min(period.len())]);
    }
}

/// Whether `payload` is the start of symbol `seq`'s pattern.
fn pattern_matches(seq: u64, payload: &[u8]) -> bool {
    let period = pattern_period(seq);
    payload
        .chunks(period.len())
        .all(|chunk| chunk == &period[..chunk.len()])
}

/// What one symbol's transmit writes before any other event can read
/// it: the scheduler's [`Choice`] and the codec's coefficient planes and
/// pad. Every scheduler writes the whole choice, and every split refills
/// each plane and pad byte it reads from the share stream, so a host
/// lends one scratch to all of its sessions in turn and nothing of one
/// session's symbol reaches another's. It grows to the largest split it
/// has served and never shrinks: warm, a split allocates nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    choice: Choice,
    codec: CodecScratch,
}

/// A host's send backlog on each of its channels, from A and from B:
/// how long a frame queued there now waits to be serialized. The
/// dynamic scheduler sends a symbol's shares on the channels whose
/// backlog is within the config's readiness threshold, so readiness is
/// the host's, read by each session it lends these to. All zero until
/// the host sets one.
#[derive(Debug, Clone, Default)]
pub struct Backlogs([[SimTime; MAX_CHANNELS]; 2]);

impl Backlogs {
    /// Sets `from`'s send backlog on `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not below [`MAX_CHANNELS`].
    pub fn set(&mut self, channel: usize, from: Endpoint, backlog: SimTime) {
        self.0[from as usize][channel] = backlog;
    }
}

/// What a call into [`EngineCore`] borrows from its host.
#[derive(Debug)]
pub struct Lent<'a> {
    /// The pool frames and rebuilt payloads come from and go back to.
    /// Each buffer taken leaves the core by value, so the core holds
    /// none between calls and any pool will do.
    pub pool: &'a mut BufferPool,
    /// The slab the core's reassembly tables keep their partial symbols
    /// and parked shares in: one per host, lent to every core, and the
    /// same slab on every call into one core.
    pub partials: &'a mut Partials,
    /// The bytes each emitted frame starts with (a demux prefix, or
    /// nothing).
    pub prefix: &'a [u8],
    /// The host's share key, which every share's randomness is drawn
    /// under.
    pub key: &'a ShareKey,
    /// The session's stream id under `key`, unique among the host's
    /// sessions: the connection ID on a server, 0 on a host of one.
    pub stream: u32,
    /// The host's scratch, which a symbol is scheduled and split in: one
    /// per host, lent to each of its sessions in turn.
    pub scratch: &'a mut Scratch,
    /// The host's channel backlogs, which every symbol's schedule reads.
    pub backlogs: &'a Backlogs,
}

impl Lent<'_> {
    /// A pooled buffer holding the host's prefix, ready for a frame.
    fn take_frame(&mut self) -> Vec<u8> {
        let mut buf = self.pool.take();
        buf.extend_from_slice(self.prefix);
        buf
    }
}

/// The protocol state machine without buffers: [`Engine`]'s state and
/// all of its logic, written against the pool, partial slab, frame
/// prefix, share key, scratch and channel backlogs the host lends for
/// the duration of a call ([`Lent`]). A core keeps only what outlives an
/// event.
///
/// A host of many sessions keeps one [`BufferPool`], one [`Partials`]
/// slab, one [`ShareKey`], one [`Scratch`], one [`Backlogs`] and one core
/// per session.
/// Every `partials` lent to one core must be the same slab: its
/// reassembly tables' partial symbols, with the shares parked in them,
/// are entries of it. Every `(key, stream)` lent to one core must be the same too, and no
/// other core on the host may be lent it: the core splits each symbol
/// of a direction once, on the stream named by the direction and the
/// symbol's number among that direction's splits, so no keystream byte
/// is used twice. Frames come out in [`Action::SendShare`] /
/// [`Action::SendControl`] already starting with `prefix` (a demux
/// prefix, or nothing), in buffers taken from `pool`; those buffers and
/// [`Action::DeliverSymbol`] payloads are the host's to put back once
/// it is done with them. A core at rest holds no payload buffer at all.
///
/// A core holds the state of the B→A direction only if its traffic uses
/// it: an [`Workload::Echo`] source or an adaptive target builds it,
/// boxed, with the core. Any other session never sends from B, so it
/// drops what arrives at A, counting it in
/// [`SessionReport::misdirected_frames`].
///
/// The fields are laid out as declared, in the order a symbol reads
/// them (the `layout_follows_the_symbol_path` test pins the groups): a
/// hosted session is visited once among thousands of others, so every
/// cache line it touches is a miss, and what is read together must
/// share lines.
#[repr(C)]
pub struct EngineCore {
    // Read by every event, whichever way it travels.
    config: Arc<ProtocolConfig>,
    n: usize,
    source: SourceMode,
    codec: CodecId,
    /// Whether a `TIMER_SWEEP` is outstanding (never more than one).
    sweep_armed: bool,
    actions: VecDeque<Action>,

    // Transmit at A: what an offered symbol or a source tick reads, down
    // to the host's `metrics`, which count the choice and each send.
    next_seq: u64,
    offered: u64,
    sent: u64,
    sum_k: u64,
    sum_m: u64,
    scheduler_a: SessionScheduler,
    pacer: Option<Pacer>,
    metrics: Arc<HostMetrics>,

    // Receive at B: a share meets `metrics` above, then the table; the
    // one that completes its symbol updates the counters before it.
    delivered_window: u64,
    delivered_total: u64,
    meter: ThroughputMeter,
    delay: DelaySummary,
    table_b: ReassemblyCore,

    // What a constant-rate session never reads: the return path, the
    // CPU model, the error counters.
    return_path: Option<Box<ReturnPath>>,
    cpu_a: CpuClock,
    cpu_b: CpuClock,
    corrupted: u64,
    send_queue_drops: u64,
    wire_errors: u64,
    misdirected_frames: u64,
}

/// Everything only the B→A direction reads: the echo's way back and the
/// adaptive loop's feedback. Built by [`EngineCore::new`] for an
/// [`Workload::Echo`] source or an adaptive target, and for no other
/// session, which sends nothing from B.
struct ReturnPath {
    table_a: ReassemblyCore,
    scheduler_b: SessionScheduler,
    rtt: DelaySummary,
    adaptive: Option<AdaptiveController>,
    /// Symbols B has split: the next echo's share stream.
    echoes: u64,
    feedback_epoch: u32,
    /// One past the highest symbol number B has reconstructed.
    seen_through: u64,
    /// The symbols the next report covers, numbered below this: those
    /// seen when the last report left, so a feedback period has passed
    /// since a later symbol overtook each of them.
    report_through: u64,
    /// Symbols numbered below `report_through` B has reconstructed.
    report_delivered: u64,
    last_epoch_seen: Option<u32>,
    last_feedback_delivered: u64,
    last_feedback_through: u64,
    /// A's symbols numbered below this are counted in some epoch.
    counted_through: u64,
    /// A's next symbol number when the report before last and the last
    /// report arrived, in that order.
    next_seq_at_reports: [u64; 2],
}

impl core::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineCore")
            .field("config", &self.config)
            .field("n", &self.n)
            .field("source", &self.source)
            .field("sent", &self.sent)
            .finish_non_exhaustive()
    }
}

/// Appends `counters` to `snap`, keeping its counters sorted by name.
fn push_counters(snap: &mut MetricsSnapshot, counters: &[(&str, u64)]) {
    for &(name, value) in counters {
        snap.counters.push(mcss_obs::CounterSnapshot {
            name: name.to_string(),
            value,
        });
    }
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
}

impl EngineCore {
    /// Builds a core for `n` channels that records its protocol counters
    /// and distributions into its host's `metrics`, which any number of
    /// cores over the same channels may share (a server shard's do). The
    /// core itself keeps only what its [`SessionReport`] reads.
    ///
    /// The metrics are written as plain memory, on the contract of **one
    /// writer at a time**: whichever single thread drives the cores
    /// built over them (a shard's thread, holding `&mut Shard`). Cores
    /// driven from different threads at once need a set each. Any thread
    /// may read; debug builds assert the contract on every record.
    ///
    /// # Errors
    ///
    /// [`mcss_core::ModelError::InvalidParameters`] if the config's
    /// `(κ, μ)` are invalid for `n` channels,
    /// [`mcss_core::ModelError::AdaptiveNeedsDynamicScheduler`] for an
    /// adaptive target on any other scheduler, and
    /// [`mcss_core::ChannelError::TooMany`] for more than
    /// [`mcss_core::MAX_CHANNELS`] channels.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` was not built for `n` channels.
    pub fn new(
        config: impl Into<Arc<ProtocolConfig>>,
        n: usize,
        source: SourceMode,
        metrics: Arc<HostMetrics>,
    ) -> Result<Self, mcss_core::ModelError> {
        assert_eq!(
            metrics.channel_count(),
            n,
            "host metrics built for another channel count"
        );
        if n > MAX_CHANNELS {
            return Err(ChannelError::TooMany { count: n }.into());
        }
        let config: Arc<ProtocolConfig> = config.into();
        let scheduler_a = build_scheduler(config.scheduler(), config.kappa(), config.mu(), n)?;
        let adaptive = match config.adaptive_target() {
            None => None,
            Some(target) => {
                if !matches!(config.scheduler(), SchedulerKind::Dynamic) {
                    // Adaptation rewrites the dynamic sampler's mu; it is
                    // meaningless for externally fixed schedules.
                    return Err(mcss_core::ModelError::AdaptiveNeedsDynamicScheduler);
                }
                Some(AdaptiveController::new(
                    config.kappa(),
                    config.mu(),
                    n,
                    target,
                )?)
            }
        };
        let table = || {
            ReassemblyCore::new(
                config.reassembly_timeout(),
                config.reassembly_capacity_bytes(),
            )
        };
        let echo = matches!(source, SourceMode::Paced(Workload::Echo { .. }));
        let return_path = if echo || adaptive.is_some() {
            Some(Box::new(ReturnPath {
                table_a: table(),
                scheduler_b: build_scheduler(config.scheduler(), config.kappa(), config.mu(), n)?,
                rtt: DelaySummary::new(),
                adaptive,
                echoes: 0,
                feedback_epoch: 0,
                seen_through: 0,
                report_through: 0,
                report_delivered: 0,
                last_epoch_seen: None,
                last_feedback_delivered: 0,
                last_feedback_through: 0,
                counted_through: 0,
                next_seq_at_reports: [0; 2],
            }))
        } else {
            None
        };
        let pacer = match source {
            SourceMode::Paced(workload) => Some(Pacer::with_phase(
                workload.symbol_rate(),
                1,
                workload.phase(),
            )),
            SourceMode::External => None,
        };
        // Evaluated in the order written, which is the order the
        // session's heap blocks are allocated in. It is not the order
        // the fields are declared in, and is kept on measurement: with
        // the blocks allocated in declaration order the benchmark's
        // `mem_fleet` read slower in 8 of 10 pairs, by some 5 %.
        Ok(EngineCore {
            scheduler_a,
            return_path,
            table_b: table(),
            pacer,
            sweep_armed: false,
            next_seq: 0,
            offered: 0,
            sent: 0,
            sum_k: 0,
            sum_m: 0,
            meter: ThroughputMeter::new(),
            delivered_window: 0,
            delivered_total: 0,
            delay: DelaySummary::new(),
            corrupted: 0,
            send_queue_drops: 0,
            wire_errors: 0,
            misdirected_frames: 0,
            cpu_a: CpuClock::new(),
            cpu_b: CpuClock::new(),
            metrics,
            codec: config.codec(),
            // Allocated with the engine, among the session's other
            // allocations: the first event would allocate it anyway, and
            // left until then, building a fleet is measurably slower
            // (`setup_s` on the benchmark's `mem_bulk`, by 15 to 25 %).
            actions: VecDeque::with_capacity(4),
            config,
            n,
            source,
        })
    }

    /// The number of channels the engine schedules over.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.n
    }

    /// The protocol configuration.
    #[must_use]
    pub fn config(&self) -> &Arc<ProtocolConfig> {
        &self.config
    }

    /// The share codec this engine encodes with.
    #[must_use]
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// The engine's source mode.
    #[must_use]
    pub fn source(&self) -> SourceMode {
        self.source
    }

    /// End of the sending window ([`SimTime::MAX`] for
    /// [`SourceMode::External`]).
    #[must_use]
    pub fn duration(&self) -> SimTime {
        match self.source {
            SourceMode::Paced(workload) => workload.duration(),
            SourceMode::External => SimTime::MAX,
        }
    }

    /// Symbols reconstructed at either endpoint since the session
    /// started, regardless of source mode. Paced sources consume
    /// reconstructions internally (no [`Action::DeliverSymbol`]), so a
    /// driver accounting deliveries must read this counter's delta
    /// rather than count actions.
    #[must_use]
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// The engine's report over a measurement `window` (typically the
    /// workload duration).
    #[must_use]
    pub fn report(&self, window: SimTime) -> SessionReport {
        let delivered = self.delivered_window;
        SessionReport {
            offered_symbols: self.offered,
            sent_symbols: self.sent,
            delivered_symbols: delivered,
            corrupted_symbols: self.corrupted,
            achieved_payload_bps: self.meter.rate_bps(window),
            achieved_symbol_rate: delivered as f64 / window.as_secs_f64(),
            loss_fraction: if self.sent == 0 {
                0.0
            } else {
                1.0 - self.delivered_total as f64 / self.sent as f64
            },
            mean_one_way_delay: self.delay.mean(),
            mean_rtt: self.return_path.as_ref().and_then(|back| back.rtt.mean()),
            mean_k: if self.sent == 0 {
                0.0
            } else {
                self.sum_k as f64 / self.sent as f64
            },
            mean_m: if self.sent == 0 {
                0.0
            } else {
                self.sum_m as f64 / self.sent as f64
            },
            send_queue_drops: self.send_queue_drops,
            sender_cpu_shed: self.cpu_a.shed(),
            receiver_cpu_shed: self.cpu_b.shed(),
            wire_errors: self.wire_errors,
            misdirected_frames: self.misdirected_frames,
            reassembly: self.table_b.stats(),
            adaptive_final_mu: self.adaptive().map(AdaptiveController::mu),
            adaptive_adjustments: self.adaptive().map_or(0, AdaptiveController::adjustments),
        }
    }

    /// The adaptive controller's state, if adaptation is enabled.
    #[must_use]
    pub fn adaptive(&self) -> Option<&AdaptiveController> {
        self.return_path.as_ref()?.adaptive.as_ref()
    }

    /// The protocol metrics of the engine's host, which it records into
    /// (per-channel share traffic and delay and gap distributions,
    /// realized `(k, m)` frequencies, reassembly residency). Shared with
    /// the host's other sessions, if it has any.
    #[must_use]
    pub fn metrics(&self) -> &Arc<HostMetrics> {
        &self.metrics
    }

    /// Serializable snapshot of the host's metrics plus this engine's
    /// reassembly outcome counters, under `remicss.*` names. The pool is
    /// the host's, and so are its counters.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        self.metrics
            .extend_snapshot("remicss", "reassembly.residency", &mut snap);
        let stats = self.table_b.stats();
        push_counters(
            &mut snap,
            &[
                ("remicss.symbols.resolved", stats.completed),
                (
                    "remicss.symbols.expired",
                    stats.timeout_evictions + stats.memory_evictions,
                ),
            ],
        );
        snap
    }

    /// Takes the next queued [`Action`], if any. Drain after every
    /// [`handle`](EngineCore::handle) /
    /// [`handle_frame`](EngineCore::handle_frame) call and perform the
    /// actions in order — the order reproduces the reference simulator's
    /// transmit/timer interleaving exactly.
    pub fn poll_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// The driver transmitted an [`Action::SendShare`] frame (it is now
    /// in flight or queued on the channel).
    pub fn share_send_ok(&mut self, channel: usize) {
        self.metrics.record_send(channel);
    }

    /// The driver's local queue rejected an [`Action::SendShare`] frame:
    /// the drop is counted (the frame's buffer is the host's to put
    /// back).
    pub fn share_send_rejected(&mut self, channel: usize) {
        self.send_queue_drops += 1;
        self.metrics.record_drop(channel);
    }

    /// Feeds one event into the state machine, then queues the resulting
    /// actions for [`poll_action`](EngineCore::poll_action). Buffers
    /// come from and go back to `lent.pool`, and partial symbols and
    /// their shares park in `lent.partials`; every frame emitted starts
    /// with `lent.prefix`; share randomness is drawn under `lent.key`; a
    /// symbol is scheduled over `lent.backlogs` and split in
    /// `lent.scratch`.
    ///
    /// `now` must be monotonically non-decreasing across calls; `rng` is
    /// the session's model stream (scheduler draws), so seeding it
    /// identically, under the same key and backlogs, replays
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics on [`Event::Started`] if the config's `μ` exceeds the
    /// channel count, and on a [`Event::TimerFired`] token the engine
    /// never set.
    pub fn handle(
        &mut self,
        lent: &mut Lent<'_>,
        now: SimTime,
        event: Event<'_>,
        rng: &mut StdRng,
    ) {
        match event {
            Event::Started => self.on_start(),
            Event::TimerFired { token } => self.on_timer(lent, now, token, rng),
            Event::SymbolReady { payload } => {
                self.offer_symbol(lent, now, payload, rng);
            }
        }
    }

    /// Decodes one wire frame (without any demux prefix) received on
    /// `channel` at `to`, and handles the share or control frame it
    /// holds; see [`handle`](EngineCore::handle) for what is lent and
    /// queued.
    ///
    /// The caller keeps ownership of `bytes` (the engine copies what it
    /// retains).
    ///
    /// # Errors
    ///
    /// Returns the decode error for an undecodable frame; the engine
    /// counts it in `wire_errors` and changes no other state.
    pub fn handle_frame(
        &mut self,
        lent: &mut Lent<'_>,
        now: SimTime,
        channel: usize,
        to: Endpoint,
        bytes: &[u8],
        rng: &mut StdRng,
    ) -> Result<(), WireError> {
        let message = wire::decode_message_ref(bytes).inspect_err(|_| self.wire_errors += 1)?;
        if to == Endpoint::A && self.return_path.is_none() {
            self.misdirected_frames += 1;
            return Ok(());
        }
        match message {
            MessageRef::Share(share) => {
                let now_ns = now.as_nanos();
                self.metrics.record_receive(
                    channel,
                    now_ns,
                    now_ns.saturating_sub(share.sent_at_nanos()),
                );
                match to {
                    Endpoint::B => self.on_share_at_b(lent, now, &share, rng),
                    Endpoint::A => self.on_share_at_a(lent, now, &share),
                }
            }
            // Control frames arriving at B (echo of our own order)
            // cannot occur: B only ever sends them.
            MessageRef::Control(control) => {
                if to == Endpoint::A {
                    self.on_control_at_a(control);
                }
            }
        }
        Ok(())
    }

    fn on_start(&mut self) {
        assert!(
            self.config.mu() <= self.n as f64,
            "config mu exceeds channel count"
        );
        if let Some(pacer) = self.pacer.as_mut() {
            let first = pacer.next_tick();
            self.actions.push_back(Action::SetTimer {
                token: TIMER_SOURCE,
                at: first,
            });
        }
        if self.adaptive().is_some() {
            self.actions.push_back(Action::SetTimer {
                token: TIMER_FEEDBACK,
                at: FEEDBACK_PERIOD,
            });
        }
    }

    fn on_timer(&mut self, lent: &mut Lent<'_>, now: SimTime, token: u64, rng: &mut StdRng) {
        match token {
            TIMER_SOURCE => self.on_source_tick(lent, now, rng),
            TIMER_FEEDBACK => {
                self.send_feedback(lent);
                if now < self.duration() {
                    self.actions.push_back(Action::SetTimer {
                        token: TIMER_FEEDBACK,
                        at: now + FEEDBACK_PERIOD,
                    });
                }
            }
            TIMER_SWEEP => {
                self.sweep_armed = false;
                if let Some(back) = self.return_path.as_deref_mut() {
                    back.table_a.sweep(lent.partials, now);
                }
                self.table_b.sweep(lent.partials, now);
                self.arm_sweep(lent.partials);
            }
            other => panic!("unknown timer token {other}"),
        }
    }

    /// Sets the sweep timer for the sweep-grid instant that evicts the
    /// oldest partial symbol of either table, unless one is outstanding
    /// or nothing is buffered. Called whenever a table may have gained
    /// its first partial and after every sweep, so a timer is pending
    /// exactly while something can expire and each partial is evicted at
    /// the grid instant a sweep on every grid instant would evict it.
    fn arm_sweep(&mut self, partials: &Partials) {
        if self.sweep_armed {
            return;
        }
        let due = [
            self.return_path
                .as_deref()
                .and_then(|back| back.table_a.next_sweep_at(partials)),
            self.table_b.next_sweep_at(partials),
        ];
        let Some(at) = due.into_iter().flatten().min() else {
            return;
        };
        self.sweep_armed = true;
        self.actions.push_back(Action::SetTimer {
            token: TIMER_SWEEP,
            at,
        });
    }

    /// Offers one symbol payload from host A: counts it, splits it, and
    /// queues the share transmissions. Returns `false` if the CPU model
    /// shed it.
    fn offer_symbol(
        &mut self,
        lent: &mut Lent<'_>,
        now: SimTime,
        payload: &[u8],
        rng: &mut StdRng,
    ) -> bool {
        self.offered += 1;
        let seq = self.next_seq;
        let stamp = now.as_nanos();
        if self.transmit(lent, now, Endpoint::A, seq, stamp, payload, rng) {
            self.next_seq += 1;
            self.sent += 1;
            true
        } else {
            false
        }
    }

    fn on_source_tick(&mut self, lent: &mut Lent<'_>, now: SimTime, rng: &mut StdRng) {
        if now >= self.duration() {
            return;
        }
        let mut payload = lent.pool.take();
        pattern_into(self.next_seq, self.config.symbol_bytes(), &mut payload);
        self.offer_symbol(lent, now, &payload, rng);
        lent.pool.put(payload);
        let pacer = self.pacer.as_mut().expect("paced source has a pacer");
        let next = pacer.next_tick();
        self.actions.push_back(Action::SetTimer {
            token: TIMER_SOURCE,
            at: next,
        });
    }

    /// Splits and queues one symbol's shares from `from`. Returns `false`
    /// if the symbol was shed by the CPU model before transmission.
    ///
    /// Steady-state allocation-free: the scheduler writes into the lent
    /// [`Scratch`]'s [`Choice`], shares are encoded by the session
    /// codec's `split_into` over its planes directly into pooled wire
    /// buffers (host prefix and header already written), and the host
    /// puts the buffers back once the frames are sent. Each share is
    /// written exactly once.
    ///
    /// The split draws from the share stream of `(from, split)`, where
    /// `split` counts the symbols `from` split before: at A that is
    /// `seq` itself (a symbol the CPU model sheds keeps its number and
    /// was never split), at B the echo count, because a replayed or
    /// late share can complete the same `seq` at B twice.
    #[allow(clippy::too_many_arguments)]
    fn transmit(
        &mut self,
        lent: &mut Lent<'_>,
        now: SimTime,
        from: Endpoint,
        seq: u64,
        stamp: u64,
        payload: &[u8],
        rng: &mut StdRng,
    ) -> bool {
        {
            let scheduler = match from {
                Endpoint::A => &mut self.scheduler_a,
                Endpoint::B => {
                    let back = self
                        .return_path
                        .as_deref_mut()
                        .expect("only a session with a return path sends from B");
                    &mut back.scheduler_b
                }
            };
            let backlogs = &lent.backlogs.0[from as usize][..self.n];
            let state = ChannelState::new(backlogs, self.config.readiness_threshold());
            scheduler.choose_into(&state, rng, &mut lent.scratch.choice);
        }
        let (k, m) = (lent.scratch.choice.k, lent.scratch.choice.channels.len());
        if let Some(cpu) = self.config.cpu() {
            let cost = cpu.send_cost(m, payload.len());
            let clock = match from {
                Endpoint::A => &mut self.cpu_a,
                Endpoint::B => &mut self.cpu_b,
            };
            if !clock.try_charge(now, cost, cpu) {
                return false;
            }
        }
        let split = match from {
            Endpoint::A => seq,
            Endpoint::B => {
                let back = self
                    .return_path
                    .as_deref_mut()
                    .expect("only a session with a return path sends from B");
                back.echoes += 1;
                back.echoes - 1
            }
        };
        let mut stream = lent.key.stream(lent.stream, from == Endpoint::B, split);
        let codec = self.codec;
        // Per-share payload size is codec-defined (Shamir: the symbol
        // itself; XOR: prefix + replica slots) and uniform across the
        // m shares, so every header can be written before the split.
        let share_len = codec.share_len(payload.len(), k, m as u8);
        // `m ≤ n ≤ MAX_CHANNELS`, which `new` checked.
        let mut outs = [const { Vec::new() }; MAX_CHANNELS];
        let outs = &mut outs[..m];
        for (j, buf) in outs.iter_mut().enumerate() {
            // Share j of a split carries abscissa j + 1.
            *buf = lent.take_frame();
            wire::put_share_header_for(buf, codec, seq, k, m as u8, j as u8 + 1, stamp, share_len)
                .expect("share parameters validated");
        }
        codec
            .split_into(
                payload,
                k,
                m as u8,
                &mut stream,
                &mut lent.scratch.codec,
                outs,
            )
            .expect("split cannot fail");
        if from == Endpoint::A {
            self.sum_k += u64::from(k);
            self.sum_m += m as u64;
            self.metrics.record_choice(k, m);
        }
        for (buf, &channel) in outs.iter_mut().zip(&lent.scratch.choice.channels) {
            self.actions.push_back(Action::SendShare {
                channel,
                from,
                frame: mem::take(buf),
            });
        }
        true
    }

    fn on_share_at_b(
        &mut self,
        lent: &mut Lent<'_>,
        now: SimTime,
        share: &ShareRef<'_>,
        rng: &mut StdRng,
    ) {
        let seq = share.seq();
        let k = share.k() as usize;
        let stamp = share.sent_at_nanos();
        let (outcome, payload) = self.table_b.accept(lent.pool, lent.partials, share, now);
        if outcome == AcceptOutcome::Stored {
            self.arm_sweep(lent.partials);
        }
        // The reconstruction is in a pooled buffer like any other: it
        // goes back below unless the symbol is delivered in it.
        let Some(out) = payload else {
            return;
        };
        self.metrics
            .record_residency(self.table_b.last_completed_residency().as_nanos());
        let charged = match self.config.cpu() {
            Some(cpu) => {
                let cost = cpu.recv_cost(k, out.len());
                // On failure the receiver is saturated: symbol dropped.
                self.cpu_b.try_charge(now, cost, cpu)
            }
            None => true,
        };
        if charged {
            match self.source {
                SourceMode::Paced(workload) => {
                    if pattern_matches(seq, &out) {
                        self.count_delivery(seq);
                        let window = workload.duration();
                        if now <= window {
                            self.delivered_window += 1;
                            self.meter.record(now, (out.len() * 8) as u64);
                            self.delay.record(now - SimTime::from_nanos(stamp));
                        }
                        if matches!(workload, Workload::Echo { .. }) {
                            // Bounce the symbol back through the protocol,
                            // keeping the original timestamp so A measures
                            // full protocol RTT.
                            self.transmit(lent, now, Endpoint::B, seq, stamp, &out, rng);
                        }
                    } else {
                        self.corrupted += 1;
                    }
                }
                SourceMode::External => {
                    self.count_delivery(seq);
                    self.delivered_window += 1;
                    self.meter.record(now, (out.len() * 8) as u64);
                    self.delay.record(now - SimTime::from_nanos(stamp));
                    self.actions
                        .push_back(Action::DeliverSymbol { seq, payload: out });
                    return;
                }
            }
        }
        lent.pool.put(out);
    }

    /// Counts symbol `seq`, reconstructed at B, in the session's total
    /// and, with a return path, in what B reports back.
    fn count_delivery(&mut self, seq: u64) {
        self.delivered_total += 1;
        if let Some(back) = self.return_path.as_deref_mut() {
            // The peer picks the numbers: the largest must not overflow.
            back.seen_through = back.seen_through.max(seq.saturating_add(1));
            if seq < back.report_through {
                back.report_delivered += 1;
            }
        }
    }

    fn on_share_at_a(&mut self, lent: &mut Lent<'_>, now: SimTime, share: &ShareRef<'_>) {
        let k = share.k() as usize;
        let stamp = share.sent_at_nanos();
        let back = self
            .return_path
            .as_deref_mut()
            .expect("`handle` drops shares at A without a return path");
        let (outcome, payload) = back.table_a.accept(lent.pool, lent.partials, share, now);
        if let Some(out) = payload {
            let charged = match self.config.cpu() {
                Some(cpu) => {
                    let cost = cpu.recv_cost(k, out.len());
                    self.cpu_a.try_charge(now, cost, cpu)
                }
                None => true,
            };
            if charged {
                back.rtt.record(now - SimTime::from_nanos(stamp));
            }
            lent.pool.put(out);
        } else if outcome == AcceptOutcome::Stored {
            self.arm_sweep(lent.partials);
        }
    }

    fn send_feedback(&mut self, lent: &mut Lent<'_>) {
        let back = self
            .return_path
            .as_deref_mut()
            .expect("feedback is armed only with a return path");
        back.feedback_epoch += 1;
        let frame = ControlFrame::new(
            back.feedback_epoch,
            back.report_delivered,
            back.report_through,
        );
        // The next report covers every symbol seen by now, each of which
        // B reconstructed or a later one overtook: by then one still
        // missing is lost, not in flight. All B reconstructed so far is
        // among them.
        back.report_through = back.seen_through;
        back.report_delivered = self.delivered_total;
        // Tiny frame, sent on every channel for loss resilience.
        for ch in 0..self.n {
            let mut buf = lent.take_frame();
            frame.encode_into(&mut buf);
            self.actions.push_back(Action::SendControl {
                channel: ch,
                from: Endpoint::B,
                frame: buf,
            });
        }
    }

    fn on_control_at_a(&mut self, frame: ControlFrame) {
        let back = self
            .return_path
            .as_deref_mut()
            .expect("`handle` drops control frames at A without a return path");
        if back.last_epoch_seen.is_some_and(|e| frame.epoch() <= e) {
            return; // duplicate copy from another channel
        }
        back.last_epoch_seen = Some(frame.epoch());
        // The epoch is the symbols the report covers and the last did
        // not: A numbers only the symbols it sends. A report whose
        // `through` did not move says B saw no new symbol in the period
        // before the last report left. Every symbol A had sent when the
        // report before last arrived had reached B by then, if a round
        // trip is shorter than the period, so those B has not seen are
        // lost, not in flight: without them a channel that delivers
        // nothing would show no loss at all.
        let mut covered = frame.through();
        if covered <= back.last_feedback_through {
            covered = covered.max(back.next_seq_at_reports[0]);
        }
        let delivered = frame
            .delivered()
            .saturating_sub(back.last_feedback_delivered);
        let sent = covered.saturating_sub(back.counted_through);
        back.last_feedback_delivered = frame.delivered();
        back.last_feedback_through = frame.through();
        back.counted_through = back.counted_through.max(covered);
        back.next_seq_at_reports = [back.next_seq_at_reports[1], self.next_seq];
        let Some(ctl) = back.adaptive.as_mut() else {
            return;
        };
        let old_mu = ctl.mu();
        let new_mu = ctl.observe(delivered, sent);
        if (new_mu - old_mu).abs() > 1e-12 {
            self.scheduler_a = SessionScheduler::Dynamic(
                DynamicScheduler::new(self.config.kappa(), new_mu, self.n)
                    .expect("controller keeps mu within [kappa, n]"),
            );
        }
    }
}

/// The sans-I/O protocol state machine for one A↔B session over `n`
/// channels, with a buffer pool and channel backlogs of its own.
///
/// Set the backlogs with [`set_backlog`](Engine::set_backlog), drive it
/// with [`handle`](Engine::handle) (and
/// [`handle_frame`](Engine::handle_frame) for raw wire bytes), drain
/// [`poll_action`](Engine::poll_action), and report each
/// [`Action::SendShare`] outcome via
/// [`share_send_ok`](Engine::share_send_ok) /
/// [`share_send_rejected`](Engine::share_send_rejected) so queue-drop
/// accounting and buffer recycling stay exact. Everything that needs no
/// buffer (`report`, `metrics`, `codec`, …) is read through the
/// [`EngineCore`] it dereferences to.
#[derive(Debug)]
pub struct Engine {
    core: EngineCore,
    pool: BufferPool,
    partials: Partials,
    key: ShareKey,
    scratch: Scratch,
    backlogs: Backlogs,
}

impl Engine {
    /// Builds an engine for `n` channels, the one session of its host: it
    /// records into [`HostMetrics`] of its own and draws its shares under
    /// a fresh secret key ([`ShareKey::generate`]).
    ///
    /// # Errors
    ///
    /// [`mcss_core::ModelError::InvalidParameters`] if the config's
    /// `(κ, μ)` are invalid for `n` channels.
    pub fn new(
        config: impl Into<Arc<ProtocolConfig>>,
        n: usize,
        source: SourceMode,
    ) -> Result<Self, mcss_core::ModelError> {
        Ok(Engine {
            core: EngineCore::new(config, n, source, Arc::new(HostMetrics::new(n)))?,
            pool: BufferPool::new(),
            partials: Partials::default(),
            key: ShareKey::generate(),
            scratch: Scratch::default(),
            backlogs: Backlogs::default(),
        })
    }

    /// The engine with its shares drawn under `key` instead: for tests
    /// and pinned traces, which replay share bytes under
    /// [`ShareKey::insecure_from_seed`]. Set it before the first event.
    #[must_use]
    pub fn with_share_key(mut self, key: ShareKey) -> Self {
        self.key = key;
        self
    }

    /// The engine's buffer pool (for hit/miss/grow telemetry): frames
    /// and reconstructions live in it; the shares parked in reassembly
    /// live in the engine's [`Partials`] slab.
    #[must_use]
    pub fn frame_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The [core's snapshot](EngineCore::metrics_snapshot) plus the
    /// buffer pool's counters under `remicss.pool.*`.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.core.metrics_snapshot();
        push_counters(
            &mut snap,
            &[
                ("remicss.pool.hits", self.pool.hits()),
                ("remicss.pool.misses", self.pool.misses()),
                ("remicss.pool.grows", self.pool.grows()),
            ],
        );
        snap
    }

    /// [`EngineCore::poll_action`].
    pub fn poll_action(&mut self) -> Option<Action> {
        self.core.poll_action()
    }

    /// [`EngineCore::share_send_ok`].
    pub fn share_send_ok(&mut self, channel: usize) {
        self.core.share_send_ok(channel);
    }

    /// The driver's local queue rejected an [`Action::SendShare`] frame;
    /// `frame` returns to the pool and the drop is counted.
    pub fn share_send_rejected(&mut self, channel: usize, frame: Vec<u8>) {
        self.core.share_send_rejected(channel);
        self.pool.put(frame);
    }

    /// Returns a buffer to the engine's pool: received wire frames after
    /// [`handle_frame`](Engine::handle_frame), control frames a local
    /// queue refused (control drops are loss-resilient duplicates, not
    /// counted), and [`Action::DeliverSymbol`] payloads after the
    /// application consumed them. Keeps the steady state allocation-free.
    pub fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// Sets `from`'s send backlog on `channel`, which every symbol
    /// scheduled from then on reads ([`Backlogs::set`]).
    ///
    /// # Panics
    ///
    /// As [`Backlogs::set`].
    pub fn set_backlog(&mut self, channel: usize, from: Endpoint, backlog: SimTime) {
        self.backlogs.set(channel, from, backlog);
    }

    /// The core and what the engine lends it: its own pool, slab, key,
    /// scratch and backlogs, no frame prefix, and stream 0, the one
    /// session of its host.
    fn split(&mut self) -> (&mut EngineCore, Lent<'_>) {
        let lent = Lent {
            pool: &mut self.pool,
            partials: &mut self.partials,
            prefix: &[],
            key: &self.key,
            stream: 0,
            scratch: &mut self.scratch,
            backlogs: &self.backlogs,
        };
        (&mut self.core, lent)
    }

    /// [`EngineCore::handle`] over what the engine lends itself.
    ///
    /// # Panics
    ///
    /// As [`EngineCore::handle`].
    pub fn handle(&mut self, now: SimTime, event: Event<'_>, rng: &mut StdRng) {
        let (core, mut lent) = self.split();
        core.handle(&mut lent, now, event, rng);
    }

    /// [`EngineCore::handle_frame`] over what the engine lends itself.
    /// Hand `bytes`' buffer back with [`recycle`](Engine::recycle) once
    /// the queued actions are applied.
    ///
    /// # Errors
    ///
    /// As [`EngineCore::handle_frame`].
    pub fn handle_frame(
        &mut self,
        now: SimTime,
        channel: usize,
        to: Endpoint,
        bytes: &[u8],
        rng: &mut StdRng,
    ) -> Result<(), WireError> {
        let (core, mut lent) = self.split();
        core.handle_frame(&mut lent, now, channel, to, bytes, rng)
    }
}

impl core::ops::Deref for Engine {
    type Target = EngineCore;

    fn deref(&self) -> &EngineCore {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::mem::{offset_of, size_of};
    use rand::SeedableRng as _;

    /// Adaptation rewrites the dynamic sampler's `μ`: on any other
    /// scheduler the error says so, not that valid `(κ, μ, n)` are
    /// invalid.
    #[test]
    fn an_adaptive_target_needs_the_dynamic_scheduler() {
        for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::Dynamic] {
            let config = ProtocolConfig::new(2.0, 3.0)
                .unwrap()
                .with_scheduler(scheduler.clone())
                .with_adaptive(0.01);
            let built = Engine::new(config, 5, SourceMode::External);
            match scheduler {
                SchedulerKind::Dynamic => assert!(built.is_ok()),
                _ => assert_eq!(
                    built.unwrap_err(),
                    mcss_core::ModelError::AdaptiveNeedsDynamicScheduler
                ),
            }
        }
    }

    /// The offset of each named field of [`EngineCore`], with its name.
    macro_rules! offsets {
        ($($field:ident),+) => {
            [$((stringify!($field), offset_of!(EngineCore, $field))),+]
        };
    }

    /// `EngineCore` is `#[repr(C)]`, so its declaration order is its
    /// memory order, and the order was chosen: a hosted session is cold
    /// when its turn comes, and a symbol should fault in a few adjacent
    /// cache lines rather than one per field. Hold a new field against
    /// the paths named here before declaring it.
    #[test]
    fn layout_follows_the_symbol_path() {
        // Every event, whichever way it travels (`handle`,
        // `handle_frame`, `arm_sweep`, each `actions.push_back`): the
        // head of the struct.
        let shared = offsets!(config, n, source, codec, sweep_armed, actions);
        assert_eq!(shared[0].1, 0, "`config` leads");
        let shared_end = offset_of!(EngineCore, actions) + size_of::<VecDeque<Action>>();
        assert!(
            shared_end <= 128,
            "what every event reads ends at byte {shared_end}, past two cache lines"
        );
        // Transmit at A (`offer_symbol` / `on_source_tick` → `transmit`
        // → `share_send_ok`), from the sequence number to the host's
        // `metrics`, which count the choice and each send. `metrics`
        // closes the group because a received share reads it first
        // (`record_receive`), on its way to the group below. The choice
        // and the split planes a symbol is drawn in are the host's
        // (`Scratch`).
        let transmit_start = offset_of!(EngineCore, next_seq);
        let transmit_end = offset_of!(EngineCore, metrics) + size_of::<Arc<HostMetrics>>();
        assert!(
            transmit_end - transmit_start <= 128,
            "the transmit group spans {} B, more than two cache lines",
            transmit_end - transmit_start
        );
        let transmit = offsets!(
            next_seq,
            offered,
            sent,
            sum_k,
            sum_m,
            scheduler_a,
            pacer,
            metrics
        );
        // Receive at B (`on_share_at_b`): the delivery counters a
        // completed symbol bumps, ending where its table begins.
        let receive_start = offset_of!(EngineCore, delivered_window);
        let receive_end = offset_of!(EngineCore, table_b);
        assert!(
            receive_end - receive_start <= 128,
            "the receive group spans {} B, more than two cache lines",
            receive_end - receive_start
        );
        let receive = offsets!(delivered_window, delivered_total, meter, delay);
        // The groups follow one another: shared, transmit, receive,
        // `table_b`, then what a constant-rate session never reads.
        assert!(shared_end <= transmit_start && transmit_end <= receive_start);
        for (group, fields, start, end) in [
            ("every event reads", &shared[..], 0, shared_end),
            (
                "an offered symbol reads",
                &transmit[..],
                transmit_start,
                transmit_end,
            ),
            (
                "a completed symbol writes",
                &receive[..],
                receive_start,
                receive_end,
            ),
        ] {
            for &(field, offset) in fields {
                assert!(
                    (start..end).contains(&offset),
                    "`{field}` is among the fields {group} and belongs in bytes {start}..{end} \
                     of `EngineCore`; it is declared at byte {offset}"
                );
            }
        }
        // The B→A direction is one pointer, null unless the session
        // echoes or adapts.
        let cold = offsets!(
            return_path,
            cpu_a,
            cpu_b,
            corrupted,
            send_queue_drops,
            wire_errors,
            misdirected_frames
        );
        let cold_start = receive_end + size_of::<ReassemblyCore>();
        for (field, offset) in cold {
            assert!(
                offset >= cold_start,
                "`{field}` is read by no constant-rate symbol and belongs after `table_b` \
                 (byte {cold_start} on); it is declared at byte {offset}"
            );
        }
        // 1 472 B before the fields were ordered and the reassembly maps
        // merged, 1 400 B before the return path was boxed and the
        // transmit frames moved to the stack, 768 B before the choice and
        // the split planes moved to the host, 688 B before the partial
        // symbols did, 624 B before the channel backlogs did; declaration
        // order must not cost padding.
        assert!(
            size_of::<EngineCore>() <= 600,
            "`EngineCore` grew to {} B",
            size_of::<EngineCore>()
        );
    }

    /// Only an echo or an adaptive session builds the B→A direction.
    #[test]
    fn only_traffic_that_comes_back_builds_a_return_path() {
        let cbr = SourceMode::Paced(Workload::cbr(1_000.0, SimTime::from_secs(1)));
        let echo = SourceMode::Paced(Workload::echo(1_000.0, SimTime::from_secs(1)));
        let plain = ProtocolConfig::new(2.0, 3.0).unwrap();
        let adaptive = ProtocolConfig::new(2.0, 3.0).unwrap().with_adaptive(0.01);
        for (config, source, built) in [
            (&plain, cbr, false),
            (&plain, SourceMode::External, false),
            (&plain, echo, true),
            (&adaptive, cbr, true),
            (&adaptive, SourceMode::External, true),
        ] {
            let engine = Engine::new(config.clone(), 3, source).unwrap();
            assert_eq!(
                engine.return_path.is_some(),
                built,
                "{source:?}, adaptive target {:?}",
                config.adaptive_target()
            );
            assert_eq!(
                engine.adaptive().is_some(),
                config.adaptive_target().is_some()
            );
        }
    }

    /// More channels than a symbol's frames fit on the stack are refused.
    #[test]
    fn more_than_max_channels_are_refused() {
        let config = ProtocolConfig::new(1.0, 1.0).unwrap();
        let err = Engine::new(config.clone(), MAX_CHANNELS + 1, SourceMode::External).unwrap_err();
        assert_eq!(
            err,
            mcss_core::ModelError::Channel(ChannelError::TooMany {
                count: MAX_CHANNELS + 1
            })
        );
        assert!(Engine::new(config, MAX_CHANNELS, SourceMode::External).is_ok());
    }

    /// B counts a delivery by its symbol number, which the sender
    /// wrote: the largest number is delivered and counted, not
    /// overflowed.
    #[test]
    fn the_largest_symbol_number_is_counted() {
        let config = ProtocolConfig::new(1.0, 1.0)
            .unwrap()
            .with_codec(CodecId::Shamir)
            .with_adaptive(0.01);
        let mut engine = Engine::new(config, 1, SourceMode::External).unwrap();
        let mut frame = Vec::new();
        wire::put_share_header_for(&mut frame, CodecId::Shamir, u64::MAX, 1, 1, 1, 0, 4).unwrap();
        frame.extend_from_slice(b"abcd");
        let mut rng = StdRng::seed_from_u64(1);
        engine
            .handle_frame(SimTime::ZERO, 0, Endpoint::B, &frame, &mut rng)
            .unwrap();
        assert_eq!(
            engine.poll_action(),
            Some(Action::DeliverSymbol {
                seq: u64::MAX,
                payload: b"abcd".to_vec()
            })
        );
        assert_eq!(engine.delivered_total(), 1);
    }

    /// The ramp copy and the chunked comparison are `pattern_byte`, byte
    /// for byte, from every start value and across every period edge.
    #[test]
    fn pattern_ramp_is_pattern_byte() {
        // 31 is odd, so sequence numbers 0..256 start the pattern at
        // every byte value.
        let starts: std::collections::BTreeSet<u8> =
            (0..256).map(|seq| pattern_byte(seq, 0)).collect();
        assert_eq!(starts.len(), 256);
        let mut out = Vec::new();
        for seq in 0..256 {
            for len in [0, 1, 63, 64, 255, 256, 257, 511, 512, 1_250, 1_500] {
                let expect: Vec<u8> = (0..len).map(|i| pattern_byte(seq, i)).collect();
                pattern_into(seq, len, &mut out);
                assert_eq!(out, expect, "seq {seq}, {len} B");
                assert!(pattern_matches(seq, &expect), "seq {seq}, {len} B");
                let flips = if len == 0 {
                    vec![]
                } else {
                    vec![0, len / 2, len - 1]
                };
                for at in flips {
                    out[at] ^= 1;
                    assert!(!pattern_matches(seq, &out), "seq {seq}, {len} B, byte {at}");
                    out[at] ^= 1;
                }
            }
        }
    }

    /// Runs a paced `(2, 2)` engine for four 1 250 B symbols, every share
    /// looped straight to B; with `flip`, the byte at that offset of
    /// symbol 1's first share is flipped on the way.
    fn paced_run(flip: Option<usize>) -> SessionReport {
        // Shamir: a share is as long as its symbol, and byte `i` of one
        // share reaches byte `i` of the reconstruction alone, so the
        // flip lands on the symbol offset it names.
        let config = ProtocolConfig::new(2.0, 2.0)
            .unwrap()
            .with_codec(CodecId::Shamir);
        assert_eq!(config.symbol_bytes(), 1_250);
        let window = SimTime::from_millis(4);
        let workload = Workload::cbr(1_000.0, window);
        let mut engine = Engine::new(config, 2, SourceMode::Paced(workload)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut timers: Vec<(SimTime, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut shares = 0;
        engine.handle(now, Event::Started, &mut rng);
        loop {
            while let Some(action) = engine.poll_action() {
                match action {
                    Action::SendShare {
                        channel, mut frame, ..
                    } => {
                        engine.share_send_ok(channel);
                        if let (2, Some(at)) = (shares, flip) {
                            frame[wire::HEADER_BYTES + at] ^= 0x40;
                        }
                        shares += 1;
                        engine
                            .handle_frame(now, channel, Endpoint::B, &frame, &mut rng)
                            .unwrap();
                        engine.recycle(frame);
                    }
                    Action::SetTimer { token, at } => timers.push((at, token)),
                    other => panic!("a paced CBR session emitted {other:?}"),
                }
            }
            let Some(next) = (0..timers.len()).min_by_key(|&i| timers[i]) else {
                break;
            };
            let (at, token) = timers.swap_remove(next);
            now = at;
            engine.handle(now, Event::TimerFired { token }, &mut rng);
        }
        assert_eq!(shares, 8);
        engine.report(window)
    }

    /// The receiver's pattern check catches a single flipped byte at
    /// either end of the symbol and on both sides of a period edge.
    #[test]
    fn pattern_check_counts_a_flipped_byte() {
        let clean = paced_run(None);
        assert_eq!((clean.delivered_symbols, clean.corrupted_symbols), (4, 0));
        for at in [0, 255, 256, 1_249] {
            let report = paced_run(Some(at));
            assert_eq!(
                (report.delivered_symbols, report.corrupted_symbols),
                (3, 1),
                "flipped byte {at}"
            );
        }
    }
}
