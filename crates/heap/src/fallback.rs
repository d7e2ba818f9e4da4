//! The degradation heap: a bounded inline allocator of last resort.
//!
//! The offload design makes every allocation a round trip to a service
//! core — which means a wedged or dead service tier could turn `malloc`
//! into a hang. The hang-proof request path instead *degrades*: when
//! every shard has deadlined or died, the client allocates inline from
//! this shared heap. It is deliberately the "old world" the paper argues
//! against — §2.3's "software mutex locks are used to control access to
//! metadata to process requests from different cores", Glibc's arena
//! discipline: one mutex around one heap, and the cross-core metadata
//! traffic that comes with it. Slow but always live, and only ever
//! touched when the new world has already failed.
//!
//! Frees route back here by address, exactly like shard routing: the
//! inner [`SegregatedHeap`] stamps the caller-chosen `owner` id into
//! every segment, so [`crate::owner_of_small_ptr`] distinguishes
//! fallback blocks from shard blocks for the whole life of the block.
//! That keeps `allocs == frees` exact at shutdown even for blocks
//! allocated during an outage and freed after recovery.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::classes::layout_to_class;
use crate::error::AllocError;
use crate::seg_heap::SegregatedHeap;
use crate::stats::HeapStats;
use crate::Heap;

/// A shared, lazily-activated inline allocator of last resort.
///
/// Small-class layouts only: frees route here by the owner id in the
/// block's segment header, which a large block does not have. The tier
/// never needs to degrade one — its handles map large blocks on the
/// calling thread whatever state the shards are in
/// ([`crate::LargeBlocks`]).
pub struct FallbackHeap {
    /// The one lock every allocation, free and statistics read takes.
    inner: Mutex<SegregatedHeap>,
    /// Sticky flag: set on the first fallback allocation, never cleared.
    /// Free paths consult it (one relaxed load) before paying the
    /// owner-id read, so a process that never degrades never spends
    /// anything on this heap after construction.
    active: AtomicBool,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl FallbackHeap {
    /// Creates the heap; segments it maps will carry `owner` as their
    /// owner id. Nothing is mapped until the first allocation.
    #[must_use]
    pub fn new(owner: u64) -> Self {
        FallbackHeap {
            inner: Mutex::new(SegregatedHeap::new(owner)),
            active: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    /// Whether any allocation was ever served from this heap. Once true,
    /// free paths must check block ownership before routing to a shard.
    #[inline]
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Allocates a small-class block inline.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] for non-small layouts (see the type
    /// docs) and whatever the inner heap reports otherwise.
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout_to_class(layout.size(), layout.align()).is_none() {
            return Err(AllocError::OutOfMemory);
        }
        let p = self.inner.lock().allocate(layout)?;
        self.active.store(true, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        Ok(p)
    }

    /// Frees a block this heap allocated, routed here by its owner id.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block returned by [`FallbackHeap::allocate`]
    /// on this instance, relinquished by the caller.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>) {
        // SAFETY: forwarded contract — a live small block from the inner
        // heap, whose class the page descriptor recovers.
        unsafe { self.inner.lock().deallocate_by_ptr(ptr) };
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    /// Blocks ever allocated inline.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Blocks freed back.
    #[must_use]
    pub fn frees(&self) -> u64 {
        self.frees.load(Ordering::Relaxed)
    }

    /// Inner heap statistics (taken under the lock).
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        self.inner.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: usize) -> Layout {
        Layout::from_size_align(n, 8).unwrap()
    }

    #[test]
    fn inactive_until_first_allocation() {
        let f = FallbackHeap::new(0xFFEE);
        assert!(!f.is_active());
        let p = f.allocate(layout(64)).unwrap();
        assert!(f.is_active());
        // SAFETY: fresh block from this heap.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0x31, 64);
            f.deallocate(p);
        }
        assert!(f.is_active(), "active is sticky");
        assert_eq!(f.allocs(), 1);
        assert_eq!(f.frees(), 1);
        assert_eq!(f.stats().live_blocks, 0);
    }

    #[test]
    fn blocks_carry_the_fallback_owner_id() {
        let f = FallbackHeap::new(0xFFEE);
        let p = f.allocate(layout(128)).unwrap();
        // SAFETY: live small block from a segregated heap.
        assert_eq!(unsafe { crate::owner_of_small_ptr(p) }, 0xFFEE);
        // SAFETY: block from this heap.
        unsafe { f.deallocate(p) };
    }

    #[test]
    fn large_layouts_are_refused() {
        let f = FallbackHeap::new(1);
        assert_eq!(f.allocate(layout(1 << 20)), Err(AllocError::OutOfMemory));
        assert!(!f.is_active(), "a refusal does not activate the heap");
    }

    #[test]
    fn usable_concurrently_from_many_threads() {
        let f = std::sync::Arc::new(FallbackHeap::new(7));
        let mut joins = Vec::new();
        for t in 0..4u8 {
            let f = std::sync::Arc::clone(&f);
            joins.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                for i in 0..200usize {
                    let l = layout(16 + (usize::from(t) * 31 + i * 7) % 512);
                    let p = f.allocate(l).unwrap();
                    // SAFETY: fresh block of at least 16 bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), t, 16) };
                    mine.push(p);
                }
                for p in mine {
                    // SAFETY: blocks allocated above, freed exactly once.
                    unsafe { f.deallocate(p) };
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(f.allocs(), 800);
        assert_eq!(f.frees(), 800);
        assert_eq!(f.stats().live_blocks, 0);
    }

    #[test]
    fn a_block_is_freed_on_another_thread_than_allocated_it() {
        // xmalloc's pattern: one thread allocates, another frees.
        let f = std::sync::Arc::new(FallbackHeap::new(9));
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let freer = {
            let f = std::sync::Arc::clone(&f);
            std::thread::spawn(move || {
                for addr in rx {
                    let p = NonNull::new(addr as *mut u8).unwrap();
                    // SAFETY: the allocating thread handed over the live
                    // block through the channel.
                    unsafe { f.deallocate(p) };
                }
            })
        };
        for i in 0..1000usize {
            let p = f.allocate(layout(16 + i % 512)).unwrap();
            tx.send(p.as_ptr() as usize).unwrap();
        }
        drop(tx);
        freer.join().unwrap();
        assert_eq!(f.frees(), 1000);
        assert_eq!(f.stats().live_blocks, 0);
    }
}
