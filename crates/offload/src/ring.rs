//! Bounded single-producer/single-consumer ring buffer.
//!
//! This is the asynchronous half of the offload channel: `free()` requests
//! are posted here and the service core drains them off the critical path
//! (§3.1.2: "the entire free phase is not on the critical path and can be
//! executed asynchronously in the dedicated core").

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write. Only the producer stores it.
    tail: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read. Only the consumer stores it.
    head: CachePadded<AtomicUsize>,
    /// Set when either endpoint is dropped.
    closed: AtomicBool,
}

// SAFETY: the ring hands each slot to exactly one side at a time — the
// producer owns slots in `[tail, head + cap)` and the consumer owns
// `[head, tail)` — with Release stores on the indices publishing slot
// contents before the other side's Acquire loads can observe them. `T: Send`
// is required because values cross threads.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: see `Send`; all shared mutation goes through the atomics.
unsafe impl<T: Send> Sync for Shared<T> {}

/// Error returned by [`Producer::push`] when the ring is full or closed.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; the value is handed back. A bounded retry
    /// (see [`crate::service::ClientHandle::try_post`]) may succeed once the consumer
    /// drains — but only if the consumer is still alive, so retry loops
    /// must re-check for `Disconnected` on every attempt.
    Full(T),
    /// The consumer is gone; the value is handed back. Retrying can never
    /// succeed — callers must stop immediately instead of spinning.
    Disconnected(T),
}

/// The sending endpoint. `!Clone`: exactly one producer exists.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Cached copy of `head` to avoid reading the consumer's line on every
    /// push.
    head_cache: usize,
}

/// The receiving endpoint. `!Clone`: exactly one consumer exists.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Cached copy of `tail` to avoid reading the producer's line on every
    /// pop.
    tail_cache: usize,
}

/// Creates a ring with capacity `cap` (rounded up to a power of two).
///
/// # Panics
///
/// Panics if `cap` is zero.
pub fn spsc<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap > 0, "ring capacity must be non-zero");
    let cap = cap.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        tail: CachePadded::new(AtomicUsize::new(0)),
        head: CachePadded::new(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            head_cache: 0,
        },
        Consumer {
            shared,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Returns `true` if the consumer has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Attempts to enqueue `value`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the ring has no free slot and
    /// [`PushError::Disconnected`] when the consumer is gone; both return
    /// the value to the caller.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Disconnected(value));
        }
        let tail = self.shared.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache) > self.shared.mask {
            // Ring looks full through the cache; refresh from the consumer.
            self.head_cache = self.shared.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.head_cache) > self.shared.mask {
                return Err(PushError::Full(value));
            }
        }
        let slot = &self.shared.buf[tail & self.shared.mask];
        // SAFETY: slot index `tail` is not yet published to the consumer
        // (its Acquire load of `tail` cannot observe the new value until the
        // Release store below), and the fullness check above proves the
        // consumer has finished with this slot, so we have exclusive access.
        unsafe { (*slot.get()).write(value) };
        self.shared
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.load(Ordering::Relaxed);
        let head = self.shared.head.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    /// Returns `true` if the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Attempts to dequeue one item.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.shared.head.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.shared.tail.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        let slot = &self.shared.buf[head & self.shared.mask];
        // SAFETY: `head < tail` (checked above with an Acquire load that
        // synchronizes with the producer's Release store), so this slot
        // holds an initialized value the producer has published and will not
        // touch again until we advance `head`.
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.shared
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Drains up to `max` items into `f`; returns how many were consumed.
    pub fn drain(&mut self, max: usize, mut f: impl FnMut(T)) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    f(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Returns `true` if the producer has been dropped.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Number of items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.load(Ordering::Acquire);
        let head = self.shared.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// Returns `true` if the queue appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        // Drain anything the producer already published so it is dropped.
        while self.pop().is_some() {}
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drop any items still in the ring (producer pushed after the
        // consumer vanished, before observing `closed`).
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            let slot = &self.buf[i & self.mask];
            // SAFETY: slots in `[head, tail)` hold initialized values and no
            // other thread exists by the time Shared drops (both endpoints
            // are gone — Arc refcount reached zero).
            unsafe { (*slot.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        for i in 0..8 {
            tx.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    fn push_to_full_ring_fails() {
        let (mut tx, mut rx) = spsc::<u8>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        assert_eq!(rx.pop(), Some(1));
        tx.push(3).unwrap();
    }

    #[test]
    fn push_after_consumer_drop_fails_disconnected() {
        let (mut tx, rx) = spsc::<u8>(2);
        drop(rx);
        assert_eq!(tx.push(1), Err(PushError::Disconnected(1)));
    }

    #[test]
    fn full_ring_with_dead_consumer_reports_disconnected_not_full() {
        // Regression: a retry loop keyed on `Full` yielded forever when
        // the ring stayed full because its consumer died. Disconnection
        // must win over fullness so bounded retries stop at once.
        let (mut tx, rx) = spsc::<u8>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        drop(rx);
        assert_eq!(tx.push(3), Err(PushError::Disconnected(3)));
    }

    #[test]
    fn drain_limits_batch() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        for i in 0..6 {
            tx.push(i).unwrap();
        }
        let mut got = Vec::new();
        let n = rx.drain(4, |v| got.push(v));
        assert_eq!(n, 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn values_dropped_when_ring_dropped() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = spsc::<D>(4);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        drop(rx);
        drop(tx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cross_thread_stream_is_lossless() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = spsc::<u64>(64);
        let h = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < N {
                if let Some(v) = rx.pop() {
                    sum += v;
                    seen += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            sum
        });
        let mut i = 0u64;
        while i < N {
            match tx.push(i) {
                Ok(()) => i += 1,
                Err(PushError::Full(_)) => std::thread::yield_now(),
                Err(e) => panic!("consumer is alive: {e:?}"),
            }
        }
        assert_eq!(h.join().unwrap(), N * (N - 1) / 2);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let (mut tx, mut rx) = spsc::<u8>(4);
        assert!(tx.is_empty() && rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.pop();
        assert_eq!(rx.len(), 1);
    }
}
