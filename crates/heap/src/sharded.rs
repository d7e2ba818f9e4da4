//! Per-thread sharded heap with atomic remote-free queues — the
//! state-of-the-art-UMA baseline.
//!
//! This is the design the paper's §2.3 describes: "TCMalloc uses per-CPU/
//! thread cache to maintain metadata associated with each logical core,
//! avoiding locks for most memory allocations", while cross-thread frees
//! (the `xmalloc` pattern: "a thread allocates data but a different thread
//! deallocates") go through atomic operations on the owning shard's
//! remote queue. Those per-block atomic RMWs are exactly what
//! NextGen-Malloc removes by serializing all allocation on one core
//! (§3.1.3 "Removing unnecessary atomic operations in UMAs").
//!
//! The remote queue threads its list *through the freed blocks* (Mimalloc's
//! thread-delayed free), so a burst of cross-thread frees also drags remote
//! user-data lines through the freeing core's cache — the Table 2 effect.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crate::classes::layout_to_class;
use crate::dead_stack::DeadBlockStack;
use crate::error::AllocError;
use crate::seg_heap::SegregatedHeap;
use crate::segment::SegmentRef;
use crate::stats::HeapStats;
use crate::sys::{map_large, unmap_large};
use crate::Heap;

/// How many local operations between remote-queue drains.
const DRAIN_INTERVAL: u64 = 64;

struct ShardInner {
    /// Cross-thread frees waiting for the owner: one CAS per push is the
    /// per-free atomic RMW of a conventional UMA.
    remote: DeadBlockStack,
    index: usize,
}

struct Registry {
    shards: Box<[Arc<ShardInner>]>,
    /// Heaps of dropped handles, kept mapped so that late remote frees
    /// (pushes into their queues) never write to unmapped memory.
    graveyard: Mutex<Vec<SegregatedHeap>>,
    taken: Mutex<Vec<bool>>,
}

/// A heap sharded across `n` owner threads.
pub struct ShardedHeap {
    registry: Arc<Registry>,
}

impl ShardedHeap {
    /// Creates `n` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        let shards: Box<[Arc<ShardInner>]> = (0..n)
            .map(|index| {
                Arc::new(ShardInner {
                    remote: DeadBlockStack::new(),
                    index,
                })
            })
            .collect();
        ShardedHeap {
            registry: Arc::new(Registry {
                shards,
                graveyard: Mutex::new(Vec::new()),
                taken: Mutex::new(vec![false; n]),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.registry.shards.len()
    }

    /// Claims shard `i`'s handle. Each shard may be claimed once; give the
    /// handle to the thread that will own it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or already claimed.
    pub fn handle(&self, i: usize) -> ShardHandle {
        {
            let mut taken = self.registry.taken.lock().expect("taken poisoned");
            assert!(!taken[i], "shard {i} already claimed");
            taken[i] = true;
        }
        let inner = Arc::clone(&self.registry.shards[i]);
        let ctx = Arc::as_ptr(&inner) as *mut u8;
        ShardHandle {
            heap: SegregatedHeap::with_ctx(i as u64, ctx),
            inner,
            registry: Arc::clone(&self.registry),
            ops: 0,
        }
    }

    /// Total cross-thread frees pushed through remote queues so far.
    pub fn remote_frees(&self) -> u64 {
        self.registry.shards.iter().map(|s| s.remote.pushed()).sum()
    }
}

/// One thread's endpoint: a private heap plus routing for frees.
pub struct ShardHandle {
    heap: SegregatedHeap,
    inner: Arc<ShardInner>,
    registry: Arc<Registry>,
    ops: u64,
}

impl ShardHandle {
    /// This handle's shard index.
    pub fn index(&self) -> usize {
        self.inner.index
    }

    /// Drains this shard's remote-free queue into the local heap.
    ///
    /// Returns the number of blocks reclaimed.
    pub fn drain_remote(&mut self) -> usize {
        let heap = &mut self.heap;
        // SAFETY: every queued block was live when pushed, belongs to this
        // shard's heap (routing checked owner_ctx before pushing) and
        // stays mapped because that heap is alive.
        self.inner
            .remote
            .drain(|p| unsafe { heap.deallocate_by_ptr(p) })
    }

    fn maybe_drain(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(DRAIN_INTERVAL) {
            self.drain_remote();
        }
    }

    /// Local heap statistics (excluding blocks queued remotely).
    pub fn stats(&self) -> HeapStats {
        self.heap.stats()
    }
}

// SAFETY: the handle's heap returns fresh aligned blocks; frees are routed
// so each block is released exactly once on its owning shard.
unsafe impl Heap for ShardHandle {
    fn allocate(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout_to_class(layout.size(), layout.align()).is_none() {
            // Large blocks are shard-independent dedicated mappings: any
            // handle may free them, so they are served (and later freed)
            // outside shard accounting entirely.
            return Ok(map_large(layout)?.0);
        }
        self.maybe_drain();
        self.heap.allocate(layout)
    }

    unsafe fn deallocate(&mut self, ptr: NonNull<u8>, layout: Layout) {
        if layout_to_class(layout.size(), layout.align()).is_none() {
            // Large blocks are standalone mappings; free directly.
            // SAFETY: allocated as a dedicated mapping for this layout by
            // whichever shard served it; ownership travels with the pointer.
            unsafe { unmap_large(ptr, layout) };
            return;
        }
        // SAFETY: small blocks come from some shard's segment.
        let seg = unsafe { SegmentRef::of_ptr(ptr) };
        // SAFETY: live segment (kept mapped by its heap or the graveyard).
        let owner = unsafe { seg.header() }.owner_ctx.load(Ordering::Acquire);
        if owner == Arc::as_ptr(&self.inner) as *mut u8 {
            // SAFETY: our own block; forwarded contract.
            unsafe { self.heap.deallocate(ptr, layout) };
            self.maybe_drain();
        } else {
            // Find the owning shard and push to its remote queue — the
            // atomic RMW a conventional UMA pays on cross-thread frees.
            let shard = self
                .registry
                .shards
                .iter()
                .find(|s| Arc::as_ptr(s) as *mut u8 == owner)
                .expect("block's owner_ctx does not match any shard");
            // SAFETY: the block is dead (caller freed it) and its segment
            // stays mapped (live handle or graveyard).
            unsafe { shard.remote.push(ptr) };
        }
    }

    fn stats(&self) -> HeapStats {
        self.heap.stats()
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        // Reclaim whatever is already queued, then park the heap in the
        // graveyard so late remote pushes still target mapped memory.
        self.drain_remote();
        let heap = std::mem::replace(&mut self.heap, SegregatedHeap::new(u64::MAX));
        self.registry
            .graveyard
            .lock()
            .expect("graveyard poisoned")
            .push(heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn local_roundtrip() {
        let sh = ShardedHeap::new(2);
        let mut h = sh.handle(0);
        let p = h.allocate(layout(64)).unwrap();
        // SAFETY: our live block.
        unsafe { h.deallocate(p, layout(64)) };
        assert_eq!(h.stats().live_blocks, 0);
        assert_eq!(sh.remote_frees(), 0, "same-shard free must not hit atomics");
    }

    #[test]
    fn cross_shard_free_goes_remote() {
        let sh = ShardedHeap::new(2);
        let mut a = sh.handle(0);
        let mut b = sh.handle(1);
        let p = a.allocate(layout(128)).unwrap();
        // SAFETY: live block; handle b frees a block owned by shard 0.
        unsafe { b.deallocate(p, layout(128)) };
        assert_eq!(sh.remote_frees(), 1);
        // Owner drains it.
        assert_eq!(a.drain_remote(), 1);
        assert_eq!(a.stats().live_blocks, 0);
    }

    #[test]
    fn xmalloc_pattern_producer_consumer() {
        // One thread allocates, the other frees — Boreham's xmalloc.
        let sh = Arc::new(ShardedHeap::new(2));
        let mut prod = sh.handle(0);
        let mut cons = sh.handle(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(64);
        let consumer = std::thread::spawn(move || {
            for addr in rx {
                let p = NonNull::new(addr as *mut u8).unwrap();
                // SAFETY: producer sent a live block and relinquished it.
                unsafe { cons.deallocate(p, layout(256)) };
            }
            cons
        });
        for _ in 0..10_000 {
            let p = prod.allocate(layout(256)).unwrap();
            // SAFETY: fresh block.
            unsafe { std::ptr::write_bytes(p.as_ptr(), 0x11, 256) };
            tx.send(p.as_ptr() as usize).unwrap();
        }
        drop(tx);
        let _cons = consumer.join().unwrap();
        assert_eq!(sh.remote_frees(), 10_000);
        prod.drain_remote();
        assert_eq!(prod.stats().live_blocks, 0);
        // Blocks were recycled through the remote queue, not leaked.
        assert!(prod.stats().segments <= 2);
    }

    #[test]
    fn late_remote_free_after_owner_drop_is_safe() {
        let sh = ShardedHeap::new(2);
        let mut a = sh.handle(0);
        let mut b = sh.handle(1);
        let p = a.allocate(layout(64)).unwrap();
        drop(a); // heap goes to graveyard, stays mapped
                 // SAFETY: block memory is still mapped (graveyard).
        unsafe { b.deallocate(p, layout(64)) };
        assert_eq!(sh.remote_frees(), 1);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_claim_panics() {
        let sh = ShardedHeap::new(1);
        let _a = sh.handle(0);
        let _b = sh.handle(0);
    }

    #[test]
    fn periodic_drain_bounds_queue() {
        let sh = ShardedHeap::new(2);
        let mut a = sh.handle(0);
        let mut b = sh.handle(1);
        let ptrs: Vec<_> = (0..1000).map(|_| a.allocate(layout(64)).unwrap()).collect();
        for p in ptrs {
            // SAFETY: live blocks, freed once by shard 1.
            unsafe { b.deallocate(p, layout(64)) };
        }
        // a's next allocations trigger periodic drains.
        for _ in 0..(2 * DRAIN_INTERVAL) {
            let p = a.allocate(layout(64)).unwrap();
            // SAFETY: freed immediately, same shard.
            unsafe { a.deallocate(p, layout(64)) };
        }
        a.drain_remote();
        assert_eq!(a.stats().live_blocks, 0);
    }
}
