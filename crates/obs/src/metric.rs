//! Counters and gauges: relaxed atomics when the `telemetry` feature is
//! on, zero-sized no-ops when it is off.
//!
//! A counter has two recorders. [`Counter::add`] takes `&self` and is one
//! atomic read-modify-write, for a counter several threads bump.
//! [`Counter::add_mut`] takes `&mut self` and is a plain add: the borrow
//! proves no one else is writing, so per-session counters that already
//! sit behind `&mut` pay nothing for being readable from elsewhere.

#[cfg(feature = "telemetry")]
mod enabled {
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    /// A monotonically increasing event count.
    ///
    /// `const`-constructible so it can live in a `static`; recording is
    /// free of heap traffic, and through `&self` safe to share across
    /// threads.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct Counter(AtomicU64);

    impl Counter {
        /// A zeroed counter.
        #[must_use]
        pub const fn new() -> Self {
            Counter(AtomicU64::new(0))
        }

        /// Adds one.
        #[inline]
        pub fn inc(&self) {
            self.add(1);
        }

        /// Adds `n`.
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        /// Adds `n` through an exclusive borrow: a plain add, no locked
        /// instruction.
        #[inline]
        pub fn add_mut(&mut self, n: u64) {
            let value = self.0.get_mut();
            *value = value.wrapping_add(n);
        }

        /// Current value.
        #[inline]
        #[must_use]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// A value that can move both ways (queue depth, pool occupancy).
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct Gauge(AtomicI64);

    impl Gauge {
        /// A zeroed gauge.
        #[must_use]
        pub const fn new() -> Self {
            Gauge(AtomicI64::new(0))
        }

        /// Sets the value.
        #[inline]
        pub fn set(&self, v: i64) {
            self.0.store(v, Ordering::Relaxed);
        }

        /// Adds `n` (may be negative).
        #[inline]
        pub fn add(&self, n: i64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        /// Current value.
        #[inline]
        #[must_use]
        pub fn get(&self) -> i64 {
            self.0.load(Ordering::Relaxed)
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod disabled {
    /// Zero-sized stub: all methods are no-ops, [`get`](Counter::get)
    /// reads zero. See the crate docs for the overhead contract.
    #[derive(Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// A stub counter.
        #[must_use]
        pub const fn new() -> Self {
            Counter
        }

        /// No-op.
        #[inline]
        pub fn inc(&self) {}

        /// No-op.
        #[inline]
        pub fn add(&self, _n: u64) {}

        /// No-op.
        #[inline]
        pub fn add_mut(&mut self, _n: u64) {}

        /// Always zero.
        #[inline]
        #[must_use]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// Zero-sized stub: all methods are no-ops, [`get`](Gauge::get)
    /// reads zero.
    #[derive(Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        /// A stub gauge.
        #[must_use]
        pub const fn new() -> Self {
            Gauge
        }

        /// No-op.
        #[inline]
        pub fn set(&self, _v: i64) {}

        /// No-op.
        #[inline]
        pub fn add(&self, _n: i64) {}

        /// Always zero.
        #[inline]
        #[must_use]
        pub fn get(&self) -> i64 {
            0
        }
    }
}

#[cfg(feature = "telemetry")]
pub use enabled::{Counter, Gauge};

#[cfg(not(feature = "telemetry"))]
pub use disabled::{Counter, Gauge};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "telemetry")]
    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        c.add_mut(2);
        assert_eq!(c.get(), 7);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn stubs_are_inert() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        c.add_mut(2);
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 0);
    }
}
