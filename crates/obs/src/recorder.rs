//! The span registry and span timers.
//!
//! A [`Recorder`] owns the named histograms [`span!`](crate::span)
//! sites register at their first execution and snapshots them on
//! demand. Registered histograms are leaked `&'static` references, so a
//! site holds a direct pointer — the registry lock is touched only at
//! registration and snapshot time.
//!
//! Spans sample: a site times one execution in 64 per thread, and an
//! execution it does not time reads no clock and writes nothing another
//! thread reads.

use std::cell::Cell;
use std::sync::Mutex;
use std::sync::OnceLock;
use std::thread::LocalKey;
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use crate::Histogram;

/// A registry of named histograms: the span timings of the process.
///
/// Usually accessed through [`global`](crate::global); independent
/// recorders are useful in tests.
pub struct Recorder {
    histograms: Mutex<Vec<(&'static str, &'static Histogram)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty registry (`const`, so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        Recorder {
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    /// Span sites share histograms by name.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut histograms = self.histograms.lock().expect("recorder poisoned");
        if let Some(&(_, h)) = histograms.iter().find(|(n, _)| *n == name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        histograms.push((name, h));
        h
    }

    /// A point-in-time copy of every registered histogram, sorted by
    /// name for stable output.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let histograms = self.histograms.lock().expect("recorder poisoned");
        let mut snap = MetricsSnapshot {
            histograms: histograms
                .iter()
                .map(|&(name, h)| HistogramSnapshot::of(name, h))
                .collect(),
            ..MetricsSnapshot::default()
        };
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

/// The process-wide registry every [`span!`](crate::span) site
/// records into.
#[must_use]
pub fn global() -> &'static Recorder {
    static GLOBAL: Recorder = Recorder::new();
    &GLOBAL
}

/// One `span!` call site: caches the resolved histogram so steady
/// state never touches the registry lock.
pub struct SpanSite {
    name: &'static str,
    hist: OnceLock<&'static Histogram>,
}

impl SpanSite {
    /// A site for the span named `name` (used by the macro).
    #[must_use]
    pub const fn new(name: &'static str) -> Self {
        SpanSite {
            name,
            hist: OnceLock::new(),
        }
    }

    fn histogram(&self) -> &'static Histogram {
        self.hist.get_or_init(|| global().histogram(self.name))
    }

    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Executions of a `span!` site per timed one, on each thread. A
/// constant, not a knob: ×64 turns a span's `count` into executions
/// wherever a snapshot is read.
pub(crate) const SPAN_SAMPLE_PERIOD: u32 = 64;

/// RAII timer: for a sampled execution, records wall-clock
/// nanoseconds from [`enter`](SpanGuard::enter) to drop into the
/// site's histogram; otherwise inert.
pub struct SpanGuard {
    timed: Option<(&'static Histogram, Instant)>,
}

impl SpanGuard {
    /// Counts one execution of `site` on this thread in `tick` (the
    /// site's own thread-local, declared by the macro) and starts
    /// timing if it is the first of its 64.
    #[inline]
    #[must_use]
    pub fn enter(site: &'static SpanSite, tick: &'static LocalKey<Cell<u32>>) -> Self {
        let executions = tick.get();
        tick.set(executions.wrapping_add(1));
        if !executions.is_multiple_of(SPAN_SAMPLE_PERIOD) {
            return SpanGuard { timed: None };
        }
        SpanGuard {
            timed: Some((site.histogram(), Instant::now())),
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.timed {
            let nanos = start.elapsed().as_nanos();
            hist.record(u64::try_from(nanos).unwrap_or(u64::MAX));
        }
    }
}

/// Snapshot of the [`global`] registry — convenience for report
/// emitters.
#[must_use]
pub fn global_snapshot() -> MetricsSnapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_guard_records_into_named_histogram() {
        let _span = crate::span!("recorder.test.span");
        drop(_span);
        let snap = global().snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "recorder.test.span")
            .expect("span registered");
        assert!(h.count >= 1);
    }
}
