//! Counting global allocator: heap allocations and live heap bytes of
//! the whole process, read at window edges by the harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
// Two monotone counters instead of one signed gauge: shard threads free
// what the main thread allocated, and a wrapping difference of two
// relaxed counters is still exact once both threads are quiescent.
static BYTES_IN: AtomicU64 = AtomicU64::new(0);
static BYTES_OUT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s contract is the caller's contract; the
// counters are side effects that touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES_IN.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged, see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES_IN.fetch_add(new_size as u64, Ordering::Relaxed);
        BYTES_OUT.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged, see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES_OUT.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged, see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (alloc + realloc) since process start.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes currently live.
pub fn live_bytes() -> u64 {
    BYTES_IN
        .load(Ordering::Relaxed)
        .wrapping_sub(BYTES_OUT.load(Ordering::Relaxed))
}
