//! Spans recorded by the harness around its calls into each layer.
//!
//! The harness is generic over [`Probe`]: the untraced run instantiates
//! it with [`Off`], whose methods are empty, so the measured loop
//! carries no trace of the tracer. The traced run uses [`Tracer`], which
//! appends `(name, start, end, parent, symbol)` records to a
//! preallocated buffer, written out once at exit, and adds every sampled
//! span to per-window totals, from which the ledger is drawn.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Where the harness reports layer boundaries.
pub trait Probe {
    /// Starts a symbol; spans are recorded only for sampled symbols.
    fn symbol(&mut self, id: u64);
    /// Opens a span under the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Closes the innermost open span under another name, for a call
    /// whose kind is known only from its result.
    fn exit_as(&mut self, name: &'static str);
    /// Opens a span that is timed on *every* symbol, sampled or not,
    /// for calls whose cost comes in rare bursts (a batch of timers
    /// firing): a sample would catch a burst or miss it, and the mean
    /// would be noise. The time goes into a running total; a span is
    /// recorded as well when the symbol is sampled. Does not nest.
    fn enter_every(&mut self, name: &'static str);
    /// Closes the span opened by [`enter_every`](Probe::enter_every).
    fn exit_every(&mut self);
}

/// The probe of the untraced run.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn symbol(&mut self, _id: u64) {}
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn exit_as(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn enter_every(&mut self, _name: &'static str) {}
    #[inline(always)]
    fn exit_every(&mut self) {}
}

const NO_PARENT: u32 = u32::MAX;

/// The span clock. On x86-64 it reads the time-stamp counter directly
/// and unfenced. `Instant::now` reads the same counter behind a load
/// fence, which waits for every cache miss in flight; in a loop that
/// lives on overlapping its misses across calls, ten such reads per
/// symbol made the sampled symbols a third slower than the rest and the
/// ledger rows add up to a third more than the symbol takes. Unfenced,
/// a stamp may land a few dozen cycles early or late, which is noise
/// against spans of hundreds of nanoseconds and cancels in their sum.
struct Clock {
    #[cfg(not(target_arch = "x86_64"))]
    epoch: Instant,
    #[cfg(target_arch = "x86_64")]
    tsc_epoch: u64,
    #[cfg(target_arch = "x86_64")]
    ns_per_tick: f64,
}

impl Clock {
    #[cfg(target_arch = "x86_64")]
    fn ticks() -> u64 {
        // SAFETY: RDTSC takes no operands, touches no memory and is
        // part of the x86-64 baseline, so it has no precondition to
        // violate; where the OS forbids it in user mode it traps, which
        // ends the process rather than corrupting it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Starts the clock; on x86-64, first times the counter against
    /// `Instant` for a few milliseconds to learn its rate.
    fn start() -> Clock {
        #[cfg(target_arch = "x86_64")]
        {
            let (t0, c0) = (Instant::now(), Self::ticks());
            while t0.elapsed() < Duration::from_millis(5) {
                std::hint::spin_loop();
            }
            let (ns, ticks) = (t0.elapsed().as_nanos(), Self::ticks() - c0);
            Clock {
                tsc_epoch: Self::ticks(),
                ns_per_tick: ns as f64 / ticks.max(1) as f64,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Clock {
            epoch: Instant::now(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            (Self::ticks().wrapping_sub(self.tsc_epoch) as f64 * self.ns_per_tick) as u64
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    symbol: u64,
}

/// One open span of a sampled symbol.
#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start_ns: u64,
    /// Its record in the span buffer, while the buffer has room.
    recorded: Option<u32>,
    /// Raw time, number and descendants of the child spans closed so
    /// far.
    child_ns: u64,
    children: u32,
    descendants: u32,
}

/// Span time under one name, with the tracer's own calibrated overhead
/// removed: summed over a window while the phase runs, per symbol in a
/// [`Ledger`].
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    /// Time in spans of this name, children included.
    total_ns: f64,
    /// The same, minus the time in their child spans.
    self_ns: f64,
}

/// Span names one tracer can tell apart; a level uses about ten.
const MAX_NAMES: usize = 16;

/// What one fixed-work window of the traced phase added up to.
#[derive(Debug, Clone, Default)]
struct Window {
    seen: u64,
    sampled: u64,
    /// By index into `Tracer::names`.
    rows: [Row; MAX_NAMES],
    /// Calls and raw time of the every-symbol span.
    every_calls: u64,
    every_ns: u64,
}

/// Span time by name, per symbol, over the windows it was drawn from.
pub struct Ledger {
    rows: Vec<(&'static str, Row)>,
}

impl Ledger {
    fn row(&self, name: &str) -> Row {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Row::default, |(_, r)| *r)
    }

    /// Mean nanoseconds per symbol in spans named `name`, children
    /// included.
    pub fn per_symbol(&self, name: &str) -> f64 {
        self.row(name).total_ns
    }

    /// Mean self nanoseconds per symbol in spans named `name`.
    pub fn self_per_symbol(&self, name: &str) -> f64 {
        self.row(name).self_ns
    }
}

pub struct Tracer {
    clock: Clock,
    /// The span file: every span of the first sampled symbols.
    spans: Vec<Span>,
    open: Vec<Open>,
    names: Vec<&'static str>,
    /// Totals by window of the traced phase. The host's speed changes
    /// from window to window (see `CpuRotation`), so the ledger is
    /// drawn from the windows the caller found quiet, not from all.
    windows: Vec<Window>,
    window_symbols: u64,
    first_symbol: Option<u64>,
    window: usize,
    /// Name of the every-symbol span, and its start while open.
    every_name: Option<&'static str>,
    every_open: Option<u64>,
    /// One block of [`BLOCK`](Self::BLOCK) consecutive symbols in
    /// `every` is sampled.
    every: u64,
    active: bool,
    /// Whether the current symbol's spans also go to the span file.
    recording: bool,
    symbol: u64,
    /// What an empty span reads as its own duration, in this window.
    inner_ns: f64,
    /// What an empty span adds to its parent beyond that duration.
    outer_ns: f64,
}

impl Tracer {
    /// Symbols are sampled in runs of this many. Between two isolated
    /// sampled symbols the workload evicts the tracer's code and its
    /// totals from the caches, and every span then costs several times
    /// its calibrated overhead; inside a run only the first symbol pays
    /// that.
    const BLOCK: u64 = 32;
    /// More spans than one symbol opens on any stack.
    const SYMBOL_RESERVE: usize = 128;

    /// A tracer for a phase of windows of `window_symbols` symbols,
    /// sampling one symbol in `every` (in blocks, chosen by hash so the
    /// sample does not lock onto a period of the workload) and keeping
    /// the first `capacity` spans for the span file.
    pub fn new(capacity: usize, every: u64, window_symbols: u64) -> Self {
        Tracer {
            clock: Clock::start(),
            spans: Vec::with_capacity(capacity + Self::SYMBOL_RESERVE),
            open: Vec::with_capacity(16),
            names: Vec::with_capacity(MAX_NAMES),
            windows: Vec::new(),
            window_symbols: window_symbols.max(1),
            first_symbol: None,
            window: 0,
            every_name: None,
            every_open: None,
            every: every.max(1),
            active: false,
            recording: false,
            symbol: 0,
            inner_ns: 0.0,
            outer_ns: 0.0,
        }
    }

    /// Measures the tracer on itself at the start of every window: a
    /// parent holding empty children gives the duration an empty span
    /// reports (`inner`) and the time it costs its parent on top of
    /// that (`outer`). Per window, because the host's speed changes
    /// between windows and the spans' cost with it: a span around a
    /// call of tens of nanoseconds is mostly overhead, and an overhead
    /// measured in another host state leaves little of the call.
    fn calibrate(&mut self) {
        const CHILDREN: u32 = 256;
        let (active, recording) = (self.active, self.recording);
        (self.active, self.recording) = (true, false);
        // With both overheads zero the rows take raw time.
        (self.inner_ns, self.outer_ns) = (0.0, 0.0);
        let (child, parent) = (
            self.index_of("calibrate.child"),
            self.index_of("calibrate.parent"),
        );
        self.enter("calibrate.parent");
        for _ in 0..CHILDREN {
            self.enter("calibrate.child");
            self.exit();
        }
        self.exit();
        let rows = &mut self.windows[self.window].rows;
        self.inner_ns = rows[child].total_ns / f64::from(CHILDREN);
        self.outer_ns = rows[parent].self_ns / f64::from(CHILDREN);
        (rows[child], rows[parent]) = (Row::default(), Row::default());
        (self.active, self.recording) = (active, recording);
    }

    /// What one span cost the loop in the latest window.
    pub fn span_overhead_ns(&self) -> f64 {
        self.inner_ns + self.outer_ns
    }

    /// Symbols seen, and symbols sampled, over all windows.
    pub fn seen_and_sampled(&self) -> (u64, u64) {
        self.windows.iter().fold((0, 0), |(seen, sampled), w| {
            (seen + w.seen, sampled + w.sampled)
        })
    }

    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn index_of(&mut self, name: &'static str) -> usize {
        if let Some(at) = self.names.iter().position(|n| *n == name) {
            return at;
        }
        assert!(self.names.len() < MAX_NAMES, "more span names than rows");
        self.names.push(name);
        self.names.len() - 1
    }

    fn close(&mut self, rename: Option<&'static str>) {
        if !self.active {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("exit without a matching enter");
        let name = rename.unwrap_or(open.name);
        if let Some(index) = open.recorded {
            let span = &mut self.spans[index as usize];
            span.end_ns = end_ns;
            span.name = name;
        }
        let raw = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += raw;
            parent.children += 1;
            parent.descendants += 1 + open.descendants;
        }
        let raw = raw as f64;
        let per_span = self.inner_ns + self.outer_ns;
        let total = raw - self.inner_ns - f64::from(open.descendants) * per_span;
        let own =
            raw - self.inner_ns - open.child_ns as f64 - f64::from(open.children) * self.outer_ns;
        let at = self.index_of(name);
        let row = &mut self.windows[self.window].rows[at];
        row.total_ns += total.max(0.0);
        row.self_ns += own.max(0.0);
    }

    /// Aggregates the given windows of the phase by span name. The
    /// every-symbol span is averaged over all symbols those windows
    /// saw, the others over the symbols sampled in them.
    pub fn ledger(&self, windows: &[usize]) -> Ledger {
        let mut sums = [Row::default(); MAX_NAMES];
        let (mut seen, mut sampled, mut every_calls, mut every_ns) = (0u64, 0u64, 0u64, 0u64);
        for w in windows.iter().filter_map(|&w| self.windows.get(w)) {
            seen += w.seen;
            sampled += w.sampled;
            every_calls += w.every_calls;
            every_ns += w.every_ns;
            for (sum, row) in sums.iter_mut().zip(&w.rows) {
                sum.total_ns += row.total_ns;
                sum.self_ns += row.self_ns;
            }
        }
        let sampled = sampled.max(1) as f64;
        let mut rows: Vec<(&'static str, Row)> = self
            .names
            .iter()
            .zip(&sums)
            .map(|(&name, sum)| {
                let row = Row {
                    total_ns: sum.total_ns / sampled,
                    self_ns: sum.self_ns / sampled,
                };
                (name, row)
            })
            .collect();
        if let Some(name) = self.every_name {
            let total = (every_ns as f64 - every_calls as f64 * self.inner_ns).max(0.0);
            let mean = total / seen.max(1) as f64;
            let row = Row {
                total_ns: mean,
                self_ns: mean,
            };
            match rows.iter_mut().find(|(n, _)| *n == name) {
                Some((_, existing)) => *existing = row,
                None => rows.push((name, row)),
            }
        }
        Ledger { rows }
    }

    /// Appends this tracer's phase to `out` as one JSON object: the
    /// level, the calibration, the window size and which windows the
    /// ledger was drawn from, the every-symbol total, and a `spans`
    /// array of `[name, start_ns, end_ns, parent, symbol]`.
    pub fn write_json(&self, level: &str, ledger_windows: &[usize], out: &mut String) {
        let (seen, sampled) = self.seen_and_sampled();
        let _ = write!(
            out,
            "{{\"level\":\"{level}\",\"sample_every\":{},\"sample_block\":{},\
             \"symbols_seen\":{seen},\"symbols_sampled\":{sampled},\
             \"last_span_inner_ns\":{:.2},\"last_span_outer_ns\":{:.2},\
             \"window_symbols\":{},\"windows\":{},\"ledger_windows\":{ledger_windows:?},",
            self.every,
            Self::BLOCK,
            self.inner_ns,
            self.outer_ns,
            self.window_symbols,
            self.windows.len(),
        );
        if let Some(name) = self.every_name {
            let (calls, ns) = self.windows.iter().fold((0, 0), |(calls, ns), w| {
                (calls + w.every_calls, ns + w.every_ns)
            });
            let _ = write!(
                out,
                "\"timed_on_every_symbol\":{{\"name\":\"{name}\",\"calls\":{calls},\"total_ns\":{ns}}},"
            );
        }
        out.push_str("\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n[\"{}\",{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.symbol
            );
        }
        out.push_str("]}");
    }
}

impl Probe for Tracer {
    fn symbol(&mut self, id: u64) {
        debug_assert!(self.open.is_empty(), "span left open across symbols");
        let first = *self.first_symbol.get_or_insert(id);
        self.window = (id.saturating_sub(first) / self.window_symbols) as usize;
        if self.window >= self.windows.len() {
            self.windows.resize(self.window + 1, Window::default());
            self.calibrate();
        }
        let block = id / Self::BLOCK;
        self.active = crate::input::mix(0x7472_6163, block, 0).is_multiple_of(self.every);
        // The span file stops while a symbol's worth of spans still
        // fits, so every symbol in it is whole.
        self.recording =
            self.active && self.spans.capacity() - self.spans.len() > Self::SYMBOL_RESERVE;
        self.symbol = id;
        let window = &mut self.windows[self.window];
        window.seen += 1;
        window.sampled += u64::from(self.active);
    }

    #[inline]
    fn enter(&mut self, name: &'static str) {
        if !self.active {
            return;
        }
        let start_ns = self.now_ns();
        let recorded = self.recording.then(|| {
            assert!(
                self.spans.len() < self.spans.capacity(),
                "one symbol opened more spans than the tracer reserves"
            );
            let parent = self.open.last().and_then(|o| o.recorded);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: parent.unwrap_or(NO_PARENT),
                symbol: self.symbol,
            });
            self.spans.len() as u32 - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            recorded,
            child_ns: 0,
            children: 0,
            descendants: 0,
        });
    }

    #[inline]
    fn exit(&mut self) {
        self.close(None);
    }

    fn exit_as(&mut self, name: &'static str) {
        self.close(Some(name));
    }

    fn enter_every(&mut self, name: &'static str) {
        debug_assert!(self.every_open.is_none(), "every-symbol spans do not nest");
        debug_assert!(
            self.every_name.is_none_or(|n| n == name),
            "one every-symbol span per tracer"
        );
        self.every_name = Some(name);
        self.enter(name);
        self.every_open = Some(self.now_ns());
    }

    fn exit_every(&mut self) {
        let end_ns = self.now_ns();
        let start_ns = self
            .every_open
            .take()
            .expect("exit_every without enter_every");
        let window = &mut self.windows[self.window];
        window.every_calls += 1;
        window.every_ns += end_ns.saturating_sub(start_ns);
        self.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(64, 1, u64::MAX);
        t.symbol(1);
        t.enter("parent");
        t.enter("child");
        sleep(Duration::from_millis(5));
        t.exit();
        t.exit();
        let ledger = t.ledger(&[0]);
        let parent = ledger.per_symbol("parent");
        let child = ledger.per_symbol("child");
        let parent_self = ledger.self_per_symbol("parent");
        assert!(child >= 5e6 && parent >= child);
        assert!(parent_self < 1e6, "parent self {parent_self}");
        let mut json = String::new();
        t.write_json("3", &[0], &mut json);
        assert!(json.contains("[\"child\","));
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed.field("ledger_windows").is_some());
    }

    #[test]
    fn full_buffer_stops_recording_not_sampling() {
        let mut t = Tracer::new(2, 1, u64::MAX);
        for id in 0..4 {
            t.symbol(id);
            t.enter("a");
            sleep(Duration::from_millis(1));
            t.exit();
        }
        // Two symbols fill the span file; the totals take all four.
        assert_eq!(t.seen_and_sampled(), (4, 4));
        assert_eq!(t.spans.len(), 2);
        assert!(t.ledger(&[0]).per_symbol("a") >= 1e6);
    }

    #[test]
    fn the_ledger_is_drawn_from_the_windows_asked_for() {
        let mut t = Tracer::new(64, 1, 2);
        for id in 10..14 {
            t.symbol(id);
            t.enter("a");
            if id >= 12 {
                sleep(Duration::from_millis(5));
            }
            t.exit();
        }
        let (fast, slow) = (t.ledger(&[0]), t.ledger(&[1]));
        assert!(fast.per_symbol("a") < 1e6 && slow.per_symbol("a") >= 5e6);
        let both = t.ledger(&[0, 1]).per_symbol("a");
        assert!(both > fast.per_symbol("a") && both < slow.per_symbol("a"));
    }

    #[test]
    fn every_symbol_spans_average_over_all_symbols() {
        // Sample nothing: the running total still sees every call.
        let mut t = Tracer::new(64, u64::MAX, u64::MAX);
        for id in 0..10 {
            t.symbol(id);
            t.enter_every("burst");
            if id == 3 {
                sleep(Duration::from_millis(10));
            }
            t.exit_every();
        }
        let mean = t.ledger(&[0]).per_symbol("burst");
        assert!((1e6..5e6).contains(&mean), "mean {mean}");
    }
}
