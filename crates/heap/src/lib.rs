//! Real-memory allocator substrate for the NextGen-Malloc reproduction.
//!
//! Everything in this crate manages actual `mmap`ed memory with metadata
//! hosted inside the managed segments themselves — no dependence on Rust's
//! global allocator — so the heaps here can back a `GlobalAlloc`
//! implementation (see the `ngm-core` crate).
//!
//! There is one heap, [`PagedHeap`] — segments, 64 KiB pages,
//! one size class per page, page-local LIFO free lists — and the two
//! metadata layouts of the paper's Figure 2 are its two link stores
//! ([`FreeLinks`]: [`IndexArray`], [`InBlock`]), so block placement is identical across
//! them by construction:
//!
//! * [`SegregatedHeap`] — a free block's link lives in a per-segment
//!   metadata region as a 16-bit block index ("instead of an 8-byte
//!   pointer, a smaller index (16-bit for example) can be used"),
//!   decoupled from user data. This is the layout NextGen-Malloc needs so
//!   the service core's metadata never shares lines with user data.
//! * [`AggregatedHeap`] — the link lives in the first 8 bytes of the
//!   free block itself (PTMalloc2/Mimalloc style), interspersed with
//!   user data. Kept as the reference Figure 2, the shootout and the
//!   property tests compare against.
//!
//! On top of that single-owner heap sit the multi-threaded compositions
//! representing "current UMAs":
//!
//! * [`LockedHeap`] — one global lock (Glibc/PTMalloc2's arena discipline).
//! * [`ShardedHeap`] — per-thread heaps plus atomic remote-free queues
//!   (TCMalloc/Mimalloc's thread-local caching with cross-thread frees),
//!   i.e. exactly the atomics §3.1.3 proposes to remove.
//!
//! Modules: [`classes`] (the size-class table), [`segment`] (the 2 MiB
//! segment — one huge page — its header, page descriptors and the block
//! pages' index arrays), [`seg_heap`]
//! (the paged heap and its link stores), [`dead_stack`] (the Treiber
//! stack threaded through dead blocks: `ShardedHeap`'s remote-free queue
//! and `ngm-core`'s orphan stack), [`sharded`], [`locked`], [`fallback`]
//! (the degradation heap), [`large`] (the large-block ledger), [`sys`]
//! (`mmap`: huge-page-advised segment mappings, plain large-block ones,
//! and the per-thread fault reader the tests count with), [`stats`],
//! [`error`].

#![warn(missing_docs)]

pub mod classes;
pub mod dead_stack;
pub mod error;
pub mod fallback;
pub mod large;
pub mod locked;
pub mod seg_heap;
pub mod segment;
pub mod sharded;
pub mod stats;
pub mod sys;

pub use classes::{class_to_size, size_to_class, SizeClass, NUM_CLASSES, SMALL_MAX};
pub use dead_stack::DeadBlockStack;
pub use error::AllocError;
pub use fallback::FallbackHeap;
pub use large::LargeBlocks;
pub use locked::LockedHeap;
pub use seg_heap::{AggregatedHeap, FreeLinks, InBlock, IndexArray, PagedHeap, SegregatedHeap};
pub use sharded::ShardedHeap;
pub use stats::HeapStats;

use std::alloc::Layout;
use std::ptr::NonNull;

/// Reads the `owner_id` stamped into the segment containing `ptr`.
///
/// This is the sharded service tier's routing primitive: each shard's
/// [`SegregatedHeap`] is created with a distinct owner id, the id is
/// written into every segment header at segment-creation time and never
/// mutated afterwards, so a plain (non-atomic) read here is race-free and
/// the answer for a given address cannot change while the block is live.
/// Frees therefore route to the allocating shard by address alone — a
/// pure function of the address, stable across any client-side rebalance
/// of *allocation* traffic.
///
/// # Safety
///
/// `ptr` must point into a live segment created by a [`SegregatedHeap`]
/// (i.e. be a small-class block handed out by one).
pub unsafe fn owner_of_small_ptr(ptr: NonNull<u8>) -> u64 {
    // SAFETY: forwarded contract — `ptr` is interior to a live segment.
    unsafe { segment::SegmentRef::of_ptr(ptr).header() }.owner_id
}

/// A single-owner heap: exclusive access replaces synchronization.
///
/// # Safety
///
/// Implementations must return pointers that are valid for reads and writes
/// of `layout.size()` bytes, aligned to `layout.align()`, and that do not
/// alias any other live allocation until deallocated.
pub unsafe trait Heap {
    /// Allocates a block for `layout`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the OS refuses memory or the layout is
    /// unsupported.
    fn allocate(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError>;

    /// Deallocates a block previously returned by [`Heap::allocate`] on
    /// this heap.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `allocate(layout)` on this same heap instance
    /// and must not be used after this call.
    unsafe fn deallocate(&mut self, ptr: NonNull<u8>, layout: Layout);

    /// Point-in-time usage statistics.
    fn stats(&self) -> HeapStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_of_small_ptr_routes_by_allocating_heap() {
        let mut shard_a = SegregatedHeap::new(0xA);
        let mut shard_b = SegregatedHeap::new(0xB);
        let layout = Layout::from_size_align(48, 8).unwrap();
        let mut blocks = Vec::new();
        for i in 0..64 {
            let (heap, want) = if i % 2 == 0 {
                (&mut shard_a, 0xA)
            } else {
                (&mut shard_b, 0xB)
            };
            let p = heap.allocate(layout).unwrap();
            blocks.push((p, want));
        }
        // Every block routes back to the heap that allocated it, purely
        // by address — interleaving doesn't confuse it.
        for &(p, want) in &blocks {
            assert_eq!(unsafe { owner_of_small_ptr(p) }, want);
        }
        for (i, &(p, _)) in blocks.iter().enumerate() {
            let heap = if i % 2 == 0 {
                &mut shard_a
            } else {
                &mut shard_b
            };
            unsafe { heap.deallocate(p, layout) };
        }
    }
}
