//! Workspace-wide telemetry: where time and shares go.
//!
//! The paper's contribution is a set of *measures* — privacy `Z(p)`,
//! loss `L(p)`, delay `D(p)`, and the rate achieved by ReMICSS's dynamic
//! schedule. This crate is the runtime substrate those measures are
//! observed through: [`Counter`]s, log₂-bucketed HDR-style
//! [`Histogram`]s, RAII [`span!`] timers into a [`Recorder`] registry
//! of span histograms, and the serializable [`MetricsSnapshot`] every
//! exporter fills (JSON via serde, Prometheus text via
//! [`MetricsSnapshot::to_prometheus`]). Counters and the protocol's
//! distributions are owned by what they count (a host's metrics, a
//! shard's stats), which writes them into a snapshot itself; the
//! registry holds the span timings alone.
//!
//! # Overhead contract
//!
//! Recording writes preallocated storage — no heap allocation on any
//! record path, so the zero-allocation steady-state proof of the ReMICSS
//! data path (`mcss-remicss/tests/zero_alloc.rs`) holds with every
//! metric recording. Registration (first use of a [`span!`] site,
//! building a [`Histogram`]) may allocate; hot loops only ever record.
//! What a record costs depends on who may write:
//! * a metric **any thread** may write ([`Counter::add`],
//!   [`Histogram::record`], the global span registry) pays one locked
//!   read-modify-write per cell — five for a histogram sample;
//! * a metric with **one writer at a time** — a host's protocol
//!   counters and distributions, written by the thread that drives its
//!   sessions ([`Counter::add_single_writer`],
//!   [`Histogram::record_single_writer`]) — is written with plain
//!   loads and stores. Readers on other threads still see whole,
//!   monotone values; debug builds assert there was no second writer.
//! * a [`span!`] site times **every 64th execution per thread** and
//!   costs a thread-local increment otherwise, so a span histogram's
//!   `count` is a number of *samples* (× 64 ≈ executions; exact event
//!   counts are counters, e.g. `remicss.scheduler.choices`). The tick
//!   is per site *and* per thread: one shared tick would alias — of
//!   two sites that alternate, one would never be sampled — and a
//!   per-thread one keeps the unsampled path off shared cache lines.
//!
//! # Examples
//!
//! ```
//! use mcss_obs::{span, Counter, Histogram};
//!
//! static DELIVERIES: Counter = Counter::new();
//!
//! fn deliver() {
//!     let _span = span!("example.deliver"); // timed into the registry
//!     DELIVERIES.inc();
//! }
//!
//! deliver();
//! let snapshot = mcss_obs::global().snapshot();
//! assert!(snapshot.histograms.iter().any(|h| h.name == "example.deliver"));
//! ```

mod hist;
mod metric;
mod recorder;
mod snapshot;

pub use hist::{bucket_bounds, bucket_index, Histogram, BUCKETS, SUB_BUCKETS};
pub use metric::Counter;
pub use recorder::{global, global_snapshot, Recorder, SpanGuard, SpanSite};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

/// Times the enclosing scope into the global registry's histogram named
/// `$name` (wall-clock nanoseconds), for one execution in 64. Returns a
/// guard; bind it — `let _span = span!("shamir.split");` — so it drops
/// at scope end.
///
/// Each call site counts its executions per thread and times the 1st,
/// 65th, 129th, … on that thread: two monotonic clock reads and one
/// atomic histogram record, into a histogram the site resolves once and
/// caches. Every other execution is a thread-local increment — no clock,
/// no atomic, no shared cache line.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __MCSS_OBS_SITE: $crate::SpanSite = $crate::SpanSite::new($name);
        ::std::thread_local! {
            static __MCSS_OBS_TICK: ::core::cell::Cell<u32> =
                const { ::core::cell::Cell::new(0) };
        }
        $crate::SpanGuard::enter(&__MCSS_OBS_SITE, &__MCSS_OBS_TICK)
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_compiles_and_guards() {
        let _span = span!("obs.test.span");
        // Dropping the guard must not panic.
    }

    /// Samples recorded so far under the span named `name`.
    fn samples(name: &'static str) -> u64 {
        crate::global().histogram(name).count()
    }

    #[test]
    fn a_site_times_the_first_execution_of_every_64() {
        let run = || {
            let _span = span!("obs.test.sampled");
        };
        run();
        assert_eq!(samples("obs.test.sampled"), 1, "first execution");
        // 64·q + r executions give q + (r > 0) samples.
        let mut executions = 1u64;
        for target in [63, 64, 65, 128, 129, 64 * 5 + 17] {
            while executions < target {
                run();
                executions += 1;
            }
            assert_eq!(
                samples("obs.test.sampled"),
                target.div_ceil(64),
                "after {target} executions"
            );
        }
    }

    /// One tick shared by all sites would give every sample to the site
    /// that runs on even ticks.
    #[test]
    fn interleaved_sites_are_both_sampled() {
        for _ in 0..640 {
            {
                let _span = span!("obs.test.interleaved.a");
            }
            let _span = span!("obs.test.interleaved.b");
        }
        assert_eq!(samples("obs.test.interleaved.a"), 10);
        assert_eq!(samples("obs.test.interleaved.b"), 10);
    }

    #[test]
    fn each_thread_samples_its_own_first_execution() {
        let run = || {
            for _ in 0..3 {
                let _span = span!("obs.test.per_thread");
            }
        };
        run();
        assert_eq!(samples("obs.test.per_thread"), 1);
        std::thread::spawn(run).join().expect("span thread");
        assert_eq!(samples("obs.test.per_thread"), 2);
    }
}
