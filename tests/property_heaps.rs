//! Property-based tests of the real heaps: arbitrary alloc/touch/free
//! interleavings must preserve block integrity, alignment, and accounting
//! for every heap implementation — plus the magazine invariants of the
//! batched front-end (refill bounded by capacity, stashed addresses
//! unique and class-aligned, flushes lossless, drop returns everything).

use std::alloc::Layout;
use std::ptr::NonNull;
use std::time::{Duration, Instant};

use ngm_core::{CorePlacement, NgmConfig, MAX_BATCH};
use ngm_heap::classes::{class_to_size, size_to_class, SizeClass, NUM_CLASSES, SMALL_MAX};
use ngm_heap::segment::PAGE_SIZE;
use ngm_heap::{
    AggregatedHeap, AllocError, FreeLinks, Heap, InBlock, IndexArray, LockedHeap, PagedHeap,
    SegregatedHeap, ShardedHeap,
};
use proptest::prelude::*;

/// A scripted heap operation.
#[derive(Debug, Clone)]
enum Op {
    Alloc { size: usize, align_pow: u8 },
    Free { index: usize },
    Write { index: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..2 * SMALL_MAX, 0u8..7).prop_map(|(size, align_pow)| Op::Alloc { size, align_pow }),
        2 => any::<usize>().prop_map(|index| Op::Free { index }),
        2 => any::<usize>().prop_map(|index| Op::Write { index }),
    ]
}

/// Runs a script against any heap, checking the invariants:
/// * returned blocks are aligned and writable over their full size;
/// * a byte pattern written to a block survives until its free
///   (no aliasing between live blocks);
/// * the heap ends quiescent when everything is freed.
fn check_script<H: Heap>(heap: &mut H, ops: &[Op]) {
    let mut live: Vec<(NonNull<u8>, Layout, u8)> = Vec::new();
    let mut stamp: u8 = 0;
    for op in ops {
        match *op {
            Op::Alloc { size, align_pow } => {
                let layout = Layout::from_size_align(size, 1 << align_pow).expect("valid layout");
                match heap.allocate(layout) {
                    Ok(p) => {
                        assert_eq!(
                            p.as_ptr() as usize % layout.align(),
                            0,
                            "misaligned block for {layout:?}"
                        );
                        stamp = stamp.wrapping_add(1);
                        // SAFETY: fresh block of `size` bytes.
                        unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                        live.push((p, layout, stamp));
                    }
                    Err(AllocError::ZeroSize) => unreachable!("sizes start at 1"),
                    Err(e) => panic!("allocation failed: {e}"),
                }
            }
            Op::Free { index } => {
                if live.is_empty() {
                    continue;
                }
                let (p, layout, tag) = live.swap_remove(index % live.len());
                // The pattern must have survived any interleaved traffic.
                for off in [0, layout.size() / 2, layout.size() - 1] {
                    // SAFETY: live block, in-bounds offset.
                    assert_eq!(unsafe { *p.as_ptr().add(off) }, tag, "block corrupted");
                }
                // SAFETY: block from this heap, freed exactly once.
                unsafe { heap.deallocate(p, layout) };
            }
            Op::Write { index } => {
                if live.is_empty() {
                    continue;
                }
                let (p, layout, tag) = live[index % live.len()];
                // Rewrite the same pattern (verifies the block is still
                // writable without disturbing the invariant).
                // SAFETY: live block.
                unsafe { std::ptr::write_bytes(p.as_ptr(), tag, layout.size()) };
            }
        }
    }
    for (p, layout, tag) in live {
        // SAFETY: remaining live blocks, freed exactly once.
        unsafe {
            assert_eq!(*p.as_ptr(), tag);
            heap.deallocate(p, layout);
        }
    }
    assert_eq!(heap.stats().live_blocks, 0, "small blocks leaked");
    assert_eq!(heap.stats().large_allocs, 0, "large blocks leaked");
}

/// Frees half the live blocks part-way through, runs housekeeping, and
/// requires every survivor intact — on either link store.
fn check_release_empty<L: FreeLinks>(sizes: &[usize], release_at: usize) {
    let mut heap = PagedHeap::<L>::new(4);
    let mut live = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let layout = Layout::from_size_align(size, 8).expect("valid");
        let p = heap.allocate(layout).expect("alloc");
        // SAFETY: fresh block.
        unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8, size) };
        live.push((p, layout, (i % 251) as u8));
        if i == release_at {
            // Free half, run housekeeping, and verify survivors.
            let half = live.len() / 2;
            for (p, l, _) in live.drain(..half) {
                // SAFETY: live block.
                unsafe { heap.deallocate(p, l) };
            }
            heap.release_empty();
        }
    }
    for (p, l, tag) in live {
        // SAFETY: survivors are still live.
        unsafe {
            assert_eq!(*p.as_ptr(), tag, "housekeeping corrupted a block");
            heap.deallocate(p, l);
        }
    }
    assert_eq!(heap.stats().live_blocks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn segregated_heap_preserves_blocks(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut heap = SegregatedHeap::new(1);
        check_script(&mut heap, &ops);
    }

    #[test]
    fn aggregated_heap_preserves_blocks(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut heap = AggregatedHeap::new(2);
        check_script(&mut heap, &ops);
    }

    #[test]
    fn sharded_heap_preserves_blocks(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let sharded = ShardedHeap::new(2);
        let mut handle = sharded.handle(0);
        check_script(&mut handle, &ops);
    }

    #[test]
    fn locked_heap_matches_inner_semantics(ops in prop::collection::vec(op_strategy(), 1..120)) {
        struct Via(LockedHeap<SegregatedHeap>);
        // SAFETY: defers to LockedHeap, which upholds the contract under
        // its mutex.
        unsafe impl Heap for Via {
            fn allocate(&mut self, l: Layout) -> Result<NonNull<u8>, AllocError> {
                self.0.allocate(l)
            }
            unsafe fn deallocate(&mut self, p: NonNull<u8>, l: Layout) {
                // SAFETY: forwarded contract.
                unsafe { self.0.deallocate(p, l) }
            }
            fn stats(&self) -> ngm_heap::HeapStats {
                self.0.stats()
            }
        }
        let mut heap = Via(LockedHeap::new(SegregatedHeap::new(3)));
        check_script(&mut heap, &ops);
    }

    #[test]
    fn release_empty_never_breaks_live_blocks(
        sizes in prop::collection::vec(1usize..4096, 1..60),
        release_at in 0usize..60,
    ) {
        check_release_empty::<IndexArray>(&sizes, release_at);
        check_release_empty::<InBlock>(&sizes, release_at);
    }
}

/// A scripted operation against a batched [`ngm_core::NgmHandle`].
#[derive(Debug, Clone)]
enum MagOp {
    Alloc { size: usize },
    Free { index: usize },
    Flush,
}

fn mag_op_strategy() -> impl Strategy<Value = MagOp> {
    prop_oneof![
        4 => (1usize..=SMALL_MAX).prop_map(|size| MagOp::Alloc { size }),
        3 => any::<usize>().prop_map(|index| MagOp::Free { index }),
        1 => Just(MagOp::Flush),
    ]
}

proptest! {
    // Each case spins up a real runtime (service thread included), so
    // keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn magazine_refill_bounded_unique_and_aligned(
        batch in 1usize..=2 * MAX_BATCH, // past MAX_BATCH: must clamp
        flush in 1usize..=MAX_BATCH,
        size in 1usize..=SMALL_MAX,
    ) {
        // `sanitized()` clamps the deliberately out-of-range batch the
        // way the old builder did; `build()` alone would reject it.
        let ngm = NgmConfig::new()
            .with_batch(batch, flush)
            .sanitized()
            .build()
            .expect("sanitized config is valid");
        let mut h = ngm.handle();
        let layout = Layout::from_size_align(size, 8).expect("valid");
        let class = size_to_class(size).expect("small size has a class");
        let p = h.alloc(layout).expect("alloc");

        // Refill never exceeds the (clamped) configured capacity.
        let effective = batch.clamp(1, MAX_BATCH);
        prop_assert!(
            h.magazine_len(class) < effective,
            "magazine holds {} after one pop, capacity {}",
            h.magazine_len(class),
            effective
        );
        prop_assert!(h.magazine_occupancy() <= effective);
        // Nor one heap page's worth of bytes, whatever the batch.
        prop_assert!((h.magazine_len(class) + 1) * class_to_size(class) <= PAGE_SIZE);

        // Stashed addresses are unique, distinct from the block just
        // handed out, and aligned like every block of their class.
        let class_size = class_to_size(class) as usize;
        let class_align = 1usize << class_size.trailing_zeros().min(4);
        let stash = h.magazine_contents(class).to_vec();
        let mut seen = std::collections::HashSet::new();
        seen.insert(p.as_ptr() as usize);
        for &addr in &stash {
            prop_assert!(seen.insert(addr), "duplicate stashed address {addr:#x}");
            prop_assert_eq!(addr % class_align, 0, "stashed address misaligned for class");
        }
        prop_assert_eq!(p.as_ptr() as usize % layout.align(), 0);

        // SAFETY: block from this handle's allocator.
        unsafe { h.dealloc(p, layout) };
        drop(h);
        let down = ngm.shutdown();
        prop_assert_eq!(down.service.allocs, down.service.frees);
        prop_assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn batched_handle_never_loses_a_block(
        batch in 1usize..=MAX_BATCH,
        flush in 1usize..=MAX_BATCH,
        ops in prop::collection::vec(mag_op_strategy(), 1..80),
    ) {
        let ngm = NgmConfig::new()
            .with_batch(batch, flush)
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        let mut live: Vec<(NonNull<u8>, Layout, u8)> = Vec::new();
        let mut stamp: u8 = 0;
        let mut app_allocs = 0u64;
        let mut app_frees = 0u64;
        for op in &ops {
            match *op {
                MagOp::Alloc { size } => {
                    let layout = Layout::from_size_align(size, 8).expect("valid");
                    let p = h.alloc(layout).expect("alloc");
                    app_allocs += 1;
                    stamp = stamp.wrapping_add(1);
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                    live.push((p, layout, stamp));
                }
                MagOp::Free { index } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, layout, tag) = live.swap_remove(index % live.len());
                    // Magazines and flush buffers must never alias a
                    // live block: the pattern survives until its free.
                    for off in [0, layout.size() / 2, layout.size() - 1] {
                        // SAFETY: live block, in-bounds offset.
                        prop_assert_eq!(unsafe { *p.as_ptr().add(off) }, tag, "block corrupted");
                    }
                    // SAFETY: block from this handle, freed exactly once.
                    unsafe { h.dealloc(p, layout) };
                    app_frees += 1;
                }
                MagOp::Flush => {
                    h.flush_frees();
                    prop_assert_eq!(h.buffered_frees(), 0);
                    // Conservation, under any schedule: an accepted free
                    // is buffered, in the ring, or applied. The buffer is
                    // empty and the ring only drains, so the service comes
                    // to have applied exactly the frees issued so far. (How
                    // many are in the ring *now* is the service thread's
                    // business; asserting on it was host-shape dependent.)
                    let applied = || ngm.live_heap_stats().total_frees;
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while applied() != app_frees && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    prop_assert_eq!(applied(), app_frees);
                }
            }
        }
        for (p, layout, tag) in live {
            // SAFETY: remaining live blocks, freed exactly once.
            unsafe {
                prop_assert_eq!(*p.as_ptr(), tag);
                h.dealloc(p, layout);
            }
        }
        let stash_at_drop = h.magazine_occupancy() as u64;
        drop(h); // Flushes the buffer, returns every stashed address.
        let down = ngm.shutdown();
        // Flush preserved every buffered free and drop returned the whole
        // stash: the books balance exactly.
        prop_assert_eq!(down.service.allocs, down.service.frees);
        prop_assert_eq!(down.service.magazine_returned, stash_at_drop);
        prop_assert_eq!(down.service.app_allocs(), app_allocs);
        prop_assert_eq!(down.heap.live_blocks, 0);
        prop_assert_eq!(down.heap.live_bytes, 0);
        prop_assert_eq!(down.runtime.magazine_occupancy, 0);
    }
}

/// A scripted operation against a multi-shard tier whose class → shard
/// routing map is migrated mid-script (what a rebalance does, driven
/// deterministically).
#[derive(Debug, Clone)]
enum MigOp {
    Alloc { size: usize },
    Free { index: usize },
    Migrate { class_sel: usize, shard_sel: usize },
}

fn mig_op_strategy() -> impl Strategy<Value = MigOp> {
    prop_oneof![
        4 => (1usize..=SMALL_MAX).prop_map(|size| MigOp::Alloc { size }),
        3 => any::<usize>().prop_map(|index| MigOp::Free { index }),
        2 => (any::<usize>(), any::<usize>())
            .prop_map(|(class_sel, shard_sel)| MigOp::Migrate { class_sel, shard_sel }),
    ]
}

proptest! {
    // Each case spins up a real 4-shard tier, so keep the count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary class → shard migrations interleaved with traffic never
    /// break the address-routing invariant: a block frees back to the
    /// shard that allocated it no matter how routing moved since, so
    /// every shard's books balance exactly at shutdown. This is the
    /// property rebalancing and fail-over lean on — both only ever
    /// rewrite the *allocation* map.
    #[test]
    fn migrations_never_unbalance_a_shard(
        ops in prop::collection::vec(mig_op_strategy(), 1..120),
    ) {
        const SHARDS: usize = 4;
        let ngm = NgmConfig::new()
            .with_shards(SHARDS)
            .with_batch(8, 4)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        let mut live: Vec<(NonNull<u8>, Layout, u8)> = Vec::new();
        let mut stamp: u8 = 0;
        for op in &ops {
            match *op {
                MigOp::Alloc { size } => {
                    let layout = Layout::from_size_align(size, 8).expect("valid");
                    let p = h.alloc(layout).expect("alloc");
                    stamp = stamp.wrapping_add(1);
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, size) };
                    live.push((p, layout, stamp));
                }
                MigOp::Free { index } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, layout, tag) = live.swap_remove(index % live.len());
                    // The block must be intact even if its class was
                    // rerouted (possibly several times) since the alloc.
                    for off in [0, layout.size() / 2, layout.size() - 1] {
                        // SAFETY: live block, in-bounds offset.
                        prop_assert_eq!(unsafe { *p.as_ptr().add(off) }, tag, "block corrupted");
                    }
                    // SAFETY: block from this handle, freed exactly once.
                    unsafe { h.dealloc(p, layout) };
                }
                MigOp::Migrate { class_sel, shard_sel } => {
                    let class = SizeClass((class_sel % NUM_CLASSES) as u16);
                    let shard = shard_sel % SHARDS;
                    h.route_class_to(class, shard);
                    prop_assert_eq!(h.class_route(class), shard);
                }
            }
        }
        for (p, layout, tag) in live {
            // SAFETY: remaining live blocks, freed exactly once.
            unsafe {
                prop_assert_eq!(*p.as_ptr(), tag);
                h.dealloc(p, layout);
            }
        }
        drop(h); // Flushes buffered frees, returns the magazine stash.
        let down = ngm.shutdown();
        prop_assert!(down.clean(), "a shard reported an error");
        // The per-shard form of the invariant, not just the global sum:
        // each shard saw exactly as many frees as allocs, which can only
        // hold if every free found the shard that owns its address.
        for s in &down.shards {
            prop_assert_eq!(
                s.service.allocs, s.service.frees,
                "shard {} unbalanced after migrations", s.shard
            );
        }
        prop_assert!(down.balanced());
        prop_assert_eq!(down.heap.live_blocks, 0);
    }
}
