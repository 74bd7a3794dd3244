//! Reusable byte-buffer pooling for the zero-allocation data path.
//!
//! A steady-state protocol session moves a bounded working set of
//! buffers: frames in flight, reconstructed payloads, received
//! datagrams. [`BufferPool`] keeps that working set alive so the hot
//! loop recycles capacity instead of asking the allocator — after
//! warmup, `take`/`put` cycles perform no heap allocation at all (the
//! counting-allocator test in `mcss-remicss` pins this). A buffer taken
//! with [`take`](BufferPool::take) leaves the pool entirely, travels by
//! value (through the simulator, a send queue, the application) and
//! joins it again with [`put`](BufferPool::put).
//!
//! # Examples
//!
//! ```
//! use mcss_base::BufferPool;
//!
//! let mut pool = BufferPool::new();
//! let mut buf = pool.take();
//! buf.extend_from_slice(b"payload");
//! pool.put(buf);
//! assert_eq!(pool.take().capacity() >= 7, true); // capacity recycled
//! ```

/// A pool of `Vec<u8>` buffers that retain their capacity across
/// reuse. See the [module docs](self).
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Free buffers.
    free: Vec<Vec<u8>>,
    /// Buffers created fresh because the pool was dry.
    misses: u64,
    /// Buffers served from the free list.
    hits: u64,
    /// Times a returned buffer raised the largest capacity seen.
    grows: u64,
    /// Largest buffer capacity that has passed through the pool.
    max_capacity: usize,
}

impl BufferPool {
    /// Creates an empty pool; buffers are created on demand and
    /// retained forever after.
    #[must_use]
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Takes a cleared buffer out of the pool (allocating one only if
    /// the pool is dry).
    pub fn take(&mut self) -> Vec<u8> {
        if let Some(buf) = self.free.pop() {
            self.hits += 1;
            debug_assert!(buf.is_empty());
            buf
        } else {
            self.misses += 1;
            Vec::new()
        }
    }

    /// Returns a buffer to the pool, retaining its capacity.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.note_capacity(buf.capacity());
        self.free.push(buf);
    }

    /// Tracks capacity escalation: each time a returned buffer exceeds
    /// every capacity seen before, the pool's working set grew.
    fn note_capacity(&mut self, capacity: usize) {
        if capacity > self.max_capacity {
            self.max_capacity = capacity;
            self.grows += 1;
        }
    }

    /// Buffers created fresh because no pooled buffer was available.
    /// Flat after warmup ⇔ the data path is allocation-free.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Buffers served from the pool without allocating.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Buffers currently idle in the pool.
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Times a returned buffer raised the largest capacity the pool had
    /// seen. Flat after warmup ⇔ the working set stopped growing.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// The largest buffer capacity that has passed through the pool.
    #[must_use]
    pub fn max_capacity(&self) -> usize {
        self.max_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_round_trip_retains_capacity() {
        let mut pool = BufferPool::new();
        let mut a = pool.take();
        assert_eq!(pool.misses(), 1);
        a.extend_from_slice(&[0u8; 1500]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert_eq!(pool.hits(), 1);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn steady_state_is_miss_free() {
        let mut pool = BufferPool::new();
        for _ in 0..4 {
            let b = pool.take();
            pool.put(b);
        }
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 3);
    }

    #[test]
    fn grows_flat_once_working_set_stabilizes() {
        let mut pool = BufferPool::new();
        // Warmup: capacity climbs to 4096.
        for size in [64usize, 512, 4096] {
            let mut b = pool.take();
            b.resize(size, 0);
            pool.put(b);
        }
        assert_eq!(pool.grows(), 3);
        assert!(pool.max_capacity() >= 4096);
        // Steady state at or below the high-water mark: no new grows.
        for _ in 0..16 {
            let mut b = pool.take();
            b.resize(1500, 0);
            pool.put(b);
        }
        assert_eq!(pool.grows(), 3);
    }
}
