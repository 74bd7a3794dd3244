//! Counters: relaxed atomics.
//!
//! A counter has two recorders. [`Counter::add`] is one atomic
//! read-modify-write, for a counter several threads bump.
//! [`Counter::add_single_writer`] is a plain load and store, for a
//! counter with one writer at a time (the thread that owns what it
//! counts): readers on other threads still see whole, monotone values.

use std::sync::atomic::{AtomicU64, Ordering};

/// Replaces `old`, which the caller just loaded from `cell`, by `new`.
/// With one writer the plain store is the whole update; a debug build
/// proves there was one.
#[inline]
pub(crate) fn single_writer_store(cell: &AtomicU64, old: u64, new: u64) {
    if cfg!(debug_assertions) {
        let swapped = cell.compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed);
        debug_assert!(swapped.is_ok(), "second writer on a single-writer metric");
    } else {
        cell.store(new, Ordering::Relaxed);
    }
}

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

    /// Adds `n`; any number of threads may call this at once.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to a counter that has **one writer at a time**: a plain
    /// load and store, no locked instruction. Any thread may read
    /// meanwhile. A second concurrent writer (of either recorder) would
    /// lose counts; debug builds catch one by storing through
    /// `compare_exchange`.
    ///
    /// # Panics
    ///
    /// With `debug_assertions`, if another thread wrote the counter
    /// between this call's load and store.
    #[inline]
    pub fn add_single_writer(&self, n: u64) {
        let old = self.0.load(Ordering::Relaxed);
        single_writer_store(&self.0, old, old.wrapping_add(n));
    }

    /// Current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add_single_writer(2);
        assert_eq!(c.get(), 7);
    }
}
