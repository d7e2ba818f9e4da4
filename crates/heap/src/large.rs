//! The large-block ledger: dedicated mappings made and released on the
//! calling thread, with shared books.
//!
//! A non-class block is its own `mmap`: the kernel already serializes
//! the call, its size is recoverable only from the layout the free
//! carries, and it can never amortise a round trip to a service core.
//! The offloaded tier therefore never sends one into the room — the
//! caller maps and unmaps it inline — and this type is what keeps the
//! tier's books whole when it does. It is built the way
//! [`crate::FallbackHeap`] is: one shared instance, relaxed counters
//! touched only beside a system call, never on the small-block path.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::AllocError;
use crate::stats::HeapStats;
use crate::sys::{map_large, unmap_large};

/// A shared ledger over [`map_large`] / [`unmap_large`]; starts empty.
#[derive(Debug, Default)]
pub struct LargeBlocks {
    /// Blocks ever mapped; monotone.
    allocs: AtomicU64,
    /// Blocks ever unmapped; monotone.
    frees: AtomicU64,
    /// Page-rounded bytes currently mapped.
    live_bytes: AtomicU64,
    /// High-water mark of `live_bytes`.
    peak_bytes: AtomicU64,
}

impl LargeBlocks {
    /// Maps a dedicated block for `layout` on the calling thread.
    ///
    /// # Errors
    ///
    /// As [`map_large`].
    pub fn allocate(&self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        let (ptr, len) = map_large(layout)?;
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live_bytes.fetch_add(len as u64, Ordering::Relaxed) + len as u64;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
        Ok(ptr)
    }

    /// Unmaps a block on the calling thread.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block returned by [`LargeBlocks::allocate`]
    /// on this instance for this same `layout`, relinquished by the
    /// caller.
    pub unsafe fn deallocate(&self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded contract.
        let len = unsafe { unmap_large(ptr, layout) };
        self.live_bytes.fetch_sub(len as u64, Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
    }

    /// The books in [`HeapStats`] form, bytes page-rounded exactly as
    /// [`crate::SegregatedHeap`] rounds its own large blocks: live count
    /// and bytes, the monotone lifetime totals and the byte high-water
    /// mark; every small-block field is zero.
    #[must_use]
    pub fn stats(&self) -> HeapStats {
        // Two loads are not one snapshot: saturate rather than let the
        // live count wrap under concurrent traffic.
        let total_frees = self.frees.load(Ordering::Relaxed);
        let total_allocs = self.allocs.load(Ordering::Relaxed);
        HeapStats {
            large_allocs: total_allocs.saturating_sub(total_frees),
            large_bytes: self.live_bytes.load(Ordering::Relaxed),
            total_allocs,
            total_frees,
            peak_live_bytes: self.peak_bytes.load(Ordering::Relaxed),
            ..HeapStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::SMALL_MAX;
    use crate::sys::round_to_os_page;

    #[test]
    fn books_follow_the_mappings() {
        let ledger = LargeBlocks::default();
        // The smallest block the ledger ever sees, off the page grid.
        let a = Layout::from_size_align(SMALL_MAX + 1, 8).unwrap();
        let b = Layout::from_size_align(1 << 20, 64).unwrap();
        let pa = ledger.allocate(a).unwrap();
        let pb = ledger.allocate(b).unwrap();
        let both = (round_to_os_page(SMALL_MAX + 1) + (1 << 20)) as u64;
        let s = ledger.stats();
        assert_eq!((s.large_allocs, s.large_bytes), (2, both));
        assert_eq!((s.total_allocs, s.total_frees), (2, 0));
        // SAFETY: live blocks from this ledger, freed once each.
        unsafe {
            *pa.as_ptr().add(SMALL_MAX) = 1;
            ledger.deallocate(pa, a);
            ledger.deallocate(pb, b);
        }
        let s = ledger.stats();
        assert_eq!((s.large_allocs, s.large_bytes), (0, 0));
        assert_eq!((s.total_allocs, s.total_frees), (2, 2));
        assert_eq!(s.peak_live_bytes, both);
        assert_eq!(s.live_blocks + s.segments + s.pages_in_use, 0);
    }

    #[test]
    fn usable_concurrently_from_many_threads() {
        let ledger = LargeBlocks::default();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let ledger = &ledger;
                s.spawn(move || {
                    for i in 0..50usize {
                        let l = Layout::from_size_align(SMALL_MAX + 1 + 512 * t + i, 8).unwrap();
                        let p = ledger.allocate(l).unwrap();
                        // SAFETY: fresh block, freed once.
                        unsafe { ledger.deallocate(p, l) };
                    }
                });
            }
        });
        let s = ledger.stats();
        assert_eq!((s.total_allocs, s.total_frees), (200, 200));
        assert_eq!((s.large_allocs, s.large_bytes), (0, 0));
    }
}
