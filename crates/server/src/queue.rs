//! Bounded MPSC queues for cross-shard traffic.
//!
//! Two queue instances exist per shard: an **inbox** of handed-off
//! frames owned by this shard but received on another shard's socket
//! read, and a **return ring** carrying pooled buffers back to the
//! shard whose [`BufferPool`](mcss_base::BufferPool) they came from.
//! Both are bounded: a full inbox sheds load (the frame is dropped and
//! counted, UDP semantics), a full return ring migrates the buffer into
//! the consumer's local pool instead — backpressure never blocks a
//! shard thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A bounded multi-producer single-consumer queue. `push` never
/// blocks: over capacity it hands the item back to the caller, which
/// decides between dropping (inbox) and local adoption (return ring).
///
/// An empty queue says so without the lock. A shard asks its inbox and
/// its return ring for work on every pass, and nearly always there is
/// none, so the queue's length is mirrored in an atomic that every
/// change stores while it still holds the lock, and `pop`, `len` and
/// `is_empty` read the mirror first. A push that lands between that
/// read and the caller's return is not seen by this call, exactly as
/// one that lands just after a locked `pop` found nothing. Nothing is
/// lost by that: the item stays queued, the owner drains its inbox on
/// every pass, and the owner's next pass reads a mirror at least as new
/// as the push — the `Release` store under the lock pairs with the
/// `Acquire` load here, so whatever told the consumer of the push also
/// shows it the length. The lock alone still orders the items.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
    /// `items.len()` as of the latest change.
    len: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items, storage
    /// preallocated so steady-state push/pop never touches the
    /// allocator.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity,
            items: Mutex::new(VecDeque::with_capacity(capacity)),
            len: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.items.lock().expect("queue lock poisoned")
    }

    /// Enqueues `item`, or returns it if the queue is full.
    ///
    /// # Errors
    ///
    /// `Err(item)` when `len() == capacity()`; ownership returns to the
    /// caller.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut items = self.lock();
        if items.len() >= self.capacity {
            return Err(item);
        }
        items.push_back(item);
        self.len.store(items.len(), Ordering::Release);
        Ok(())
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut items = self.lock();
        let item = items.pop_front();
        self.len.store(items.len(), Ordering::Release);
        item
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound passed at construction.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_returns_item() {
        let q = BoundedQueue::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert_eq!(q.push("c"), Err("c"));
        assert_eq!(q.pop(), Some("a"));
        q.push("c").unwrap();
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn concurrent_producers_never_exceed_capacity() {
        use std::sync::Arc;
        let q = Arc::new(BoundedQueue::new(64));
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..100 {
                        let _ = q.push(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(q.len(), 64);
    }

    /// The lock-free emptiness check loses nothing: a consumer that
    /// keeps popping while producers push receives every item once, and
    /// the mirror agrees with the queue whenever it is still.
    #[test]
    fn a_polling_consumer_sees_every_push() {
        const PRODUCERS: u64 = 3;
        const ITEMS: u64 = 20_000;
        let q = BoundedQueue::new(8);
        assert!(q.is_empty() && q.pop().is_none());
        let mut sum = 0;
        std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..ITEMS {
                        let mut item = t * ITEMS + i;
                        // Full: the consumer is behind; try again.
                        while let Err(back) = q.push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut received = 0;
            while received < PRODUCERS * ITEMS {
                match q.pop() {
                    Some(item) => {
                        sum += item;
                        received += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        let n = PRODUCERS * ITEMS;
        assert_eq!(sum, n * (n - 1) / 2);
        assert_eq!((q.len(), q.pop()), (0, None));
        q.push(7).unwrap();
        assert_eq!((q.len(), q.is_empty()), (1, false));
    }
}
