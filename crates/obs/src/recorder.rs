//! The metric registry and span timers.
//!
//! A [`Recorder`] owns named metrics registered at startup (or lazily at
//! a [`span!`](crate::span) site's first execution) and snapshots them
//! on demand. Registered metrics are leaked `&'static` references, so
//! hot paths hold a direct pointer — the registry lock is touched only
//! at registration and snapshot time.
//!
//! Spans sample: a site times one execution in 64 per thread, and an
//! execution it does not time reads no clock and writes nothing another
//! thread reads.

use std::cell::Cell;
use std::sync::Mutex;
use std::sync::OnceLock;
use std::thread::LocalKey;
use std::time::Instant;

use crate::metric::{Counter, Gauge};
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};
use crate::Histogram;

#[derive(Default)]
struct Inner {
    counters: Vec<(&'static str, &'static Counter)>,
    gauges: Vec<(&'static str, &'static Gauge)>,
    histograms: Vec<(&'static str, &'static Histogram)>,
}

/// A registry of named counters, gauges, and histograms.
///
/// Usually accessed through [`global`](crate::global); independent
/// recorders are useful in tests.
pub struct Recorder {
    inner: Mutex<Inner>,
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
            inner: Mutex::new(Inner {
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
            }),
        }
    }

    /// The counter named `name`, registering (and leaking) it on
    /// first use. Repeated calls with the same name return the same
    /// counter.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if let Some(&(_, c)) = inner.counters.iter().find(|(n, _)| *n == name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        inner.counters.push((name, c));
        c
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if let Some(&(_, g)) = inner.gauges.iter().find(|(n, _)| *n == name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        inner.gauges.push((name, g));
        g
    }

    /// The histogram named `name`, registering it on first use.
    /// Span sites share histograms by name.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut inner = self.inner.lock().expect("recorder poisoned");
        if let Some(&(_, h)) = inner.histograms.iter().find(|(n, _)| *n == name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        inner.histograms.push((name, h));
        h
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// name for stable output.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("recorder poisoned");
        let mut snap = MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|&(name, c)| CounterSnapshot {
                    name: name.to_string(),
                    value: c.get(),
                })
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|&(name, g)| GaugeSnapshot {
                    name: name.to_string(),
                    value: g.get(),
                })
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|&(name, h)| HistogramSnapshot::of(name, h))
                .collect(),
        };
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
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
    fn registry_dedupes_by_name() {
        let r = Recorder::new();
        let a = r.counter("dedupe.test");
        let b = r.counter("dedupe.test");
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(std::ptr::eq(a, b));
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 1);
    }

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
