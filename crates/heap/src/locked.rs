//! A global-lock wrapper: the PTMalloc2 discipline.
//!
//! §2.3: "Software mutex locks are used to control access to metadata to
//! process requests from different cores. The cost of using such software
//! locks is high since cross-core communication is involved." This wrapper
//! makes any single-owner heap shareable the way Glibc's arena lock does —
//! and exhibits exactly that serialization cost under contention.

use std::alloc::Layout;
use std::ptr::NonNull;

use parking_lot::Mutex;

use crate::error::AllocError;
use crate::stats::HeapStats;
use crate::Heap;

/// A heap behind one mutex, usable from any thread by shared reference.
pub struct LockedHeap<H: Heap> {
    inner: Mutex<H>,
}

impl<H: Heap> LockedHeap<H> {
    /// Wraps `heap`.
    pub fn new(heap: H) -> Self {
        LockedHeap {
            inner: Mutex::new(heap),
        }
    }

    /// Allocates under the lock.
    ///
    /// # Errors
    ///
    /// Propagates the inner heap's errors.
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        self.inner.lock().allocate(layout)
    }

    /// Deallocates under the lock.
    ///
    /// # Safety
    ///
    /// Same contract as [`Heap::deallocate`]: `ptr` must come from
    /// `allocate(layout)` on this wrapper.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { self.inner.lock().deallocate(ptr, layout) }
    }

    /// Inner heap statistics (taken under the lock).
    pub fn stats(&self) -> HeapStats {
        self.inner.lock().stats()
    }

    /// Runs `f` with exclusive access to the inner heap (housekeeping).
    pub fn with<R>(&self, f: impl FnOnce(&mut H) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Unwraps the inner heap.
    pub fn into_inner(self) -> H {
        self.inner.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg_heap::SegregatedHeap;
    use std::sync::Arc;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn shared_allocation_across_threads() {
        let h = Arc::new(LockedHeap::new(SegregatedHeap::new(9)));
        let mut joins = Vec::new();
        for t in 0..4 {
            let h = Arc::clone(&h);
            joins.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..500usize {
                    let size = 16 + (t * 131 + i * 17) % 2000;
                    let l = layout(size);
                    let p = h.allocate(l).unwrap();
                    // SAFETY: fresh block of >= size bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), t as u8, size.min(16)) };
                    mine.push((p, l));
                }
                for (p, l) in mine {
                    // SAFETY: blocks allocated above, freed exactly once.
                    unsafe { h.deallocate(p, l) };
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.stats().live_blocks, 0);
        assert_eq!(h.stats().total_allocs, 2000);
    }

    #[test]
    fn cross_thread_free_is_legal_under_lock() {
        // xmalloc's pattern: one thread allocates, another frees.
        let h = Arc::new(LockedHeap::new(SegregatedHeap::new(9)));
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Layout)>();
        let hf = Arc::clone(&h);
        let freer = std::thread::spawn(move || {
            for (addr, l) in rx {
                let p = NonNull::new(addr as *mut u8).unwrap();
                // SAFETY: the allocating thread transferred ownership of
                // the live block through the channel.
                unsafe { hf.deallocate(p, l) };
            }
        });
        for i in 0..1000usize {
            let l = layout(16 + i % 512);
            let p = h.allocate(l).unwrap();
            tx.send((p.as_ptr() as usize, l)).unwrap();
        }
        drop(tx);
        freer.join().unwrap();
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn with_gives_housekeeping_access() {
        let h = LockedHeap::new(SegregatedHeap::new(9));
        let p = h.allocate(layout(64)).unwrap();
        // SAFETY: freed exactly once.
        unsafe { h.deallocate(p, layout(64)) };
        h.with(|inner| inner.release_empty());
        assert_eq!(h.stats().segments, 0);
    }
}
