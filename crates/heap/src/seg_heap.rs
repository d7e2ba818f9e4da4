//! The segregated-layout heap: NextGen-Malloc's service-side allocator.
//!
//! All bookkeeping — page descriptors, free lists as 16-bit indices —
//! lives in the segment metadata regions, never inside user blocks
//! (Figure 2, segregated layout). The heap is strictly single-owner
//! (`&mut self` everywhere, no atomics, not `Sync`): when it runs on the
//! dedicated service core, §3.1.3's "sequential execution can be
//! guaranteed" holds structurally and every atomic a conventional UMA
//! would need is simply absent.

use std::alloc::Layout;
use std::ptr::NonNull;

use crate::classes::{class_to_size, layout_to_class, NUM_CLASSES};
use crate::error::AllocError;
use crate::segment::{PageDesc, SegmentRef, NO_BLOCK, NO_CLASS, PAGE_SIZE};
use crate::stats::HeapStats;
use crate::sys::{map_large, unmap_large};
use crate::Heap;

/// A single-owner heap with segregated metadata.
pub struct SegregatedHeap {
    owner_id: u64,
    /// Stamped into each segment's `owner_ctx` (used by `ShardedHeap` to
    /// route cross-thread frees). Null for plain heaps.
    owner_ctx: *mut u8,
    /// Intrusive list of segments (via `SegmentHeader::next_segment`).
    segments: *mut crate::segment::SegmentHeader,
    /// Head of the partially-free page list per size class.
    bins: [*mut PageDesc; NUM_CLASSES],
    stats: HeapStats,
}

// SAFETY: the heap owns its segments exclusively; the raw pointers are not
// shared with any other thread unless a wrapper (LockedHeap, the offload
// service) serializes access. Moving the heap to another thread is sound.
unsafe impl Send for SegregatedHeap {}

impl SegregatedHeap {
    /// Creates an empty heap. No memory is mapped until the first
    /// allocation.
    pub fn new(owner_id: u64) -> Self {
        Self::with_ctx(owner_id, std::ptr::null_mut())
    }

    /// Creates an empty heap whose segments carry `ctx` in their headers.
    ///
    /// `ctx` is opaque to this heap; `ShardedHeap` uses it to find the
    /// owning shard from a bare pointer during cross-thread frees.
    pub fn with_ctx(owner_id: u64, ctx: *mut u8) -> Self {
        SegregatedHeap {
            owner_id,
            owner_ctx: ctx,
            segments: std::ptr::null_mut(),
            bins: [std::ptr::null_mut(); NUM_CLASSES],
            stats: HeapStats::default(),
        }
    }

    /// The identifier segments are stamped with.
    pub fn owner_id(&self) -> u64 {
        self.owner_id
    }

    /// Frees a small block located purely from its address, reading the
    /// size class from the page descriptor.
    ///
    /// This is the drain path for remote-free queues, where the original
    /// `Layout` is not carried with the pointer.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live small block previously returned by
    /// `allocate` on this heap and not freed since.
    pub unsafe fn deallocate_by_ptr(&mut self, ptr: NonNull<u8>) {
        // SAFETY: per contract, ptr is interior to one of our segments.
        let seg = unsafe { SegmentRef::of_ptr(ptr) };
        // SAFETY: as above.
        let (page, block) = unsafe { seg.locate(ptr) };
        // SAFETY: exclusive access.
        let d = unsafe { seg.desc(page) };
        debug_assert!(d.class != NO_CLASS && d.used > 0);
        let class = crate::classes::SizeClass(d.class);
        // SAFETY: block < nblocks.
        unsafe {
            *seg.index_array(page).add(block) = d.free_head;
        }
        d.free_head = block as u16;
        d.used -= 1;
        if !d.in_bin {
            let c = d.class as usize;
            d.in_bin = true;
            d.next_in_bin = self.bins[c];
            self.bins[c] = d as *mut PageDesc;
        }
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= class_to_size(class) as u64;
        self.stats.total_frees += 1;
    }

    fn bump_peak(&mut self) {
        let live = self.stats.live_bytes + self.stats.large_bytes;
        if live > self.stats.peak_live_bytes {
            self.stats.peak_live_bytes = live;
        }
    }

    /// Pops one block from `page` inside `seg`. The page must have space.
    ///
    /// # Safety
    ///
    /// Exclusive access to a live segment; `page` assigned to a class.
    unsafe fn pop_block(&mut self, seg: SegmentRef, page: usize) -> NonNull<u8> {
        // SAFETY: per contract.
        let d = unsafe { seg.desc(page) };
        debug_assert!(d.has_space());
        let idx = if d.free_head != NO_BLOCK {
            let idx = d.free_head;
            // SAFETY: idx < bump <= nblocks, so the slot was initialized
            // when the block was freed.
            d.free_head = unsafe { *seg.index_array(page).add(idx as usize) };
            idx
        } else {
            let idx = d.bump;
            d.bump += 1;
            idx
        };
        d.used += 1;
        let addr =
            // SAFETY: idx < nblocks and nblocks*block_size <= PAGE_SIZE.
            unsafe { seg.page_base(page).as_ptr().add(idx as usize * d.block_size as usize) };
        NonNull::new(addr).expect("block address in mapped page is non-null")
    }

    /// Takes a page from any segment (or a new segment) and assigns it to
    /// `class`.
    fn assign_fresh_page(&mut self, class: usize) -> Result<(SegmentRef, usize), AllocError> {
        // Try existing segments first.
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: segments in our list are alive and exclusively ours.
            if let Some(page) = unsafe { seg_alloc_page(seg) } {
                self.init_page(seg, page, class);
                return Ok((seg, page));
            }
            // SAFETY: as above.
            cur = unsafe { seg.header().next_segment };
        }
        // Map a new segment.
        let seg = SegmentRef::create(self.owner_id)?;
        // SAFETY: fresh segment, exclusive.
        unsafe {
            seg.header().next_segment = self.segments;
            seg.header()
                .owner_ctx
                .store(self.owner_ctx, std::sync::atomic::Ordering::Release);
        }
        self.segments = seg_raw(seg);
        self.stats.segments += 1;
        // SAFETY: fresh segment has pages available.
        let page = unsafe { seg_alloc_page(seg) }.expect("fresh segment must have pages");
        self.init_page(seg, page, class);
        Ok((seg, page))
    }

    fn init_page(&mut self, seg: SegmentRef, page: usize, class: usize) {
        let size = class_to_size(crate::classes::SizeClass(class as u16));
        // SAFETY: page freshly popped, exclusive access.
        let d = unsafe { seg.desc(page) };
        d.class = class as u16;
        d.block_size = size as u32;
        d.nblocks = (PAGE_SIZE / size) as u16;
        d.used = 0;
        d.bump = 0;
        d.free_head = NO_BLOCK;
        d.in_bin = true;
        d.next_in_bin = self.bins[class];
        self.bins[class] = d as *mut PageDesc;
        self.stats.pages_in_use += 1;
    }

    fn alloc_small(&mut self, class: usize) -> Result<NonNull<u8>, AllocError> {
        loop {
            let head = self.bins[class];
            if head.is_null() {
                break;
            }
            // SAFETY: bin pages belong to our live segments.
            let d = unsafe { &mut *head };
            if d.has_space() {
                let page = d.page_index as usize;
                // SAFETY: descriptor address is interior to its segment.
                let seg = unsafe {
                    SegmentRef::of_ptr(NonNull::new(head.cast::<u8>()).expect("non-null desc"))
                };
                // SAFETY: exclusive, page assigned.
                let p = unsafe { self.pop_block(seg, page) };
                return Ok(p);
            }
            // Full page: unlink and keep looking.
            self.bins[class] = d.next_in_bin;
            d.in_bin = false;
            d.next_in_bin = std::ptr::null_mut();
        }
        let (seg, page) = self.assign_fresh_page(class)?;
        // SAFETY: exclusive, freshly assigned page has space.
        Ok(unsafe { self.pop_block(seg, page) })
    }

    fn alloc_large(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        let (ptr, len) = map_large(layout)?;
        self.stats.large_allocs += 1;
        self.stats.large_bytes += len as u64;
        self.stats.total_allocs += 1;
        self.bump_peak();
        Ok(ptr)
    }

    /// Allocates up to `count` blocks of `class` in one pass, feeding each
    /// block to `sink`. Returns how many blocks were produced.
    ///
    /// This is the service-side half of the batched handshake: one
    /// request refills a whole client magazine, so the per-block cost here
    /// is a bin-head pop with no round trip attached. Stops early (with
    /// `Ok(n)`, `n < count`) only when the OS refuses more memory after at
    /// least one block was produced.
    ///
    /// # Errors
    ///
    /// Returns the mapping failure when not even one block could be
    /// allocated.
    pub fn allocate_batch(
        &mut self,
        class: crate::classes::SizeClass,
        count: usize,
        sink: &mut dyn FnMut(NonNull<u8>),
    ) -> Result<usize, AllocError> {
        let c = class.0 as usize;
        let size = class_to_size(class) as u64;
        let mut n = 0;
        while n < count {
            match self.alloc_small(c) {
                Ok(p) => {
                    self.stats.live_blocks += 1;
                    self.stats.live_bytes += size;
                    self.stats.total_allocs += 1;
                    sink(p);
                    n += 1;
                }
                Err(e) if n == 0 => return Err(e),
                Err(_) => break,
            }
        }
        self.bump_peak();
        Ok(n)
    }

    /// Frees a batch of small blocks located from their addresses alone
    /// (the bulk form of [`SegregatedHeap::deallocate_by_ptr`], used when
    /// a client flushes its buffered frees or returns an unused magazine).
    ///
    /// # Safety
    ///
    /// Every pointer must be a live small block previously returned by
    /// `allocate` on this heap and not freed since, with no duplicates in
    /// the batch.
    pub unsafe fn deallocate_batch(&mut self, ptrs: impl IntoIterator<Item = NonNull<u8>>) {
        for p in ptrs {
            // SAFETY: forwarded contract, per pointer.
            unsafe { self.deallocate_by_ptr(p) };
        }
    }

    /// Ensures class `class` has a page with free space, assigning a
    /// fresh one if its bin is empty. Returns `true` if a page was
    /// prepared (the §3.3.2 "predictively preallocate" hook — run it
    /// from the service's idle time and the next allocation's slow path
    /// has already been paid for off the critical path).
    ///
    /// # Errors
    ///
    /// Propagates mapping failures when a new segment is needed.
    pub fn prepare_class(&mut self, class: crate::classes::SizeClass) -> Result<bool, AllocError> {
        let c = class.0 as usize;
        let mut head = self.bins[c];
        while !head.is_null() {
            // SAFETY: bin pages belong to our live segments.
            let d = unsafe { &mut *head };
            if d.has_space() {
                return Ok(false);
            }
            head = d.next_in_bin;
        }
        self.assign_fresh_page(c)?;
        Ok(true)
    }

    /// Housekeeping: returns fully-free pages to their segments, rebuilds
    /// the bins, and unmaps segments with no pages in use.
    ///
    /// Intended to run from the service core's idle hook — deferred work is
    /// free there, which is one of the paper's arguments for the dedicated
    /// room.
    pub fn release_empty(&mut self) {
        self.bins = [std::ptr::null_mut(); NUM_CLASSES];
        let mut cur = self.segments;
        let mut keep: *mut crate::segment::SegmentHeader = std::ptr::null_mut();
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: our live segment.
            let next = unsafe { seg.header().next_segment };
            for page in crate::segment::FIRST_PAGE..crate::segment::PAGES_PER_SEGMENT {
                // SAFETY: exclusive access.
                let d = unsafe { seg.desc(page) };
                if d.class == NO_CLASS {
                    continue;
                }
                d.in_bin = false;
                d.next_in_bin = std::ptr::null_mut();
                if d.used == 0 {
                    // SAFETY: no live blocks, not in any bin.
                    unsafe { seg.free_page(page) };
                    self.stats.pages_in_use -= 1;
                } else if d.has_space() {
                    let class = d.class as usize;
                    d.in_bin = true;
                    d.next_in_bin = self.bins[class];
                    self.bins[class] = d as *mut PageDesc;
                }
            }
            // SAFETY: exclusive access.
            if unsafe { seg.header().pages_in_use } == 0 {
                self.stats.segments -= 1;
                // SAFETY: no live blocks or bin links reference it (bins
                // were rebuilt above and skip this segment's pages).
                unsafe { seg.destroy() };
            } else {
                // SAFETY: exclusive access.
                unsafe { seg.header().next_segment = keep };
                keep = seg_raw(seg);
            }
            cur = next;
        }
        self.segments = keep;
    }

    /// True when no small or large allocation is live.
    pub fn is_quiescent(&self) -> bool {
        self.stats.live_blocks == 0 && self.stats.large_allocs == 0
    }
}

/// Raw pointer form of a segment reference (helper for intrusive lists).
fn seg_raw(seg: SegmentRef) -> *mut crate::segment::SegmentHeader {
    seg.base().as_ptr().cast()
}

/// # Safety
///
/// Exclusive access to a live segment.
unsafe fn seg_alloc_page(seg: SegmentRef) -> Option<usize> {
    // SAFETY: forwarded contract.
    unsafe { seg.alloc_page() }
}

// SAFETY: `allocate` returns blocks carved from freshly mapped pages (or
// dedicated mappings) that are aligned per `layout_to_class` routing and
// not aliased until freed.
unsafe impl Heap for SegregatedHeap {
    fn allocate(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout.size() == 0 {
            return Err(AllocError::ZeroSize);
        }
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                let p = self.alloc_small(class.0 as usize)?;
                let size = class_to_size(class) as u64;
                self.stats.live_blocks += 1;
                self.stats.live_bytes += size;
                self.stats.total_allocs += 1;
                self.bump_peak();
                Ok(p)
            }
            None => self.alloc_large(layout),
        }
    }

    unsafe fn deallocate(&mut self, ptr: NonNull<u8>, layout: Layout) {
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                // SAFETY: `ptr` came from `allocate` on this heap, so it is
                // interior to one of our live segments.
                let seg = unsafe { SegmentRef::of_ptr(ptr) };
                // SAFETY: as above; the descriptor's block size matches the
                // class the layout routed to.
                let (page, block) = unsafe { seg.locate(ptr) };
                // SAFETY: exclusive access.
                let d = unsafe { seg.desc(page) };
                debug_assert_eq!(d.class, class.0, "layout/class mismatch in deallocate");
                debug_assert!(d.used > 0);
                // Push onto the page-local free list, stored in the
                // segregated index array.
                // SAFETY: block < nblocks <= MAX_BLOCKS.
                unsafe {
                    *seg.index_array(page).add(block) = d.free_head;
                }
                d.free_head = block as u16;
                d.used -= 1;
                if !d.in_bin {
                    let class = d.class as usize;
                    d.in_bin = true;
                    d.next_in_bin = self.bins[class];
                    self.bins[class] = d as *mut PageDesc;
                }
                self.stats.live_blocks -= 1;
                self.stats.live_bytes -= class_to_size(class) as u64;
                self.stats.total_frees += 1;
            }
            None => {
                // SAFETY: large blocks are whole mappings created in
                // `alloc_large` for this same layout.
                let len = unsafe { unmap_large(ptr, layout) };
                self.stats.large_allocs -= 1;
                self.stats.large_bytes -= len as u64;
                self.stats.total_frees += 1;
            }
        }
    }

    fn stats(&self) -> HeapStats {
        self.stats
    }
}

impl Drop for SegregatedHeap {
    fn drop(&mut self) {
        // Unmap every segment. Outstanding small blocks become dangling —
        // the usual contract for dropping an allocator — and live large
        // mappings (if any) are the caller's to free via `deallocate`.
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: our live segment; we drop the whole list.
            let next = unsafe { seg.header().next_segment };
            // SAFETY: heap is being dropped; no further access.
            unsafe { seg.destroy() };
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SegregatedHeap {
        SegregatedHeap::new(1)
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut h = heap();
        let p = h.allocate(layout(100)).unwrap();
        // SAFETY: fresh 100-byte (class 112) block.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0xAA, 100);
            assert_eq!(*p.as_ptr(), 0xAA);
            h.deallocate(p, layout(100));
        }
        assert_eq!(h.stats().live_blocks, 0);
        assert_eq!(h.stats().total_allocs, 1);
    }

    #[test]
    fn freed_block_is_reused() {
        let mut h = heap();
        let p1 = h.allocate(layout(64)).unwrap();
        // SAFETY: p1 just allocated.
        unsafe { h.deallocate(p1, layout(64)) };
        let p2 = h.allocate(layout(64)).unwrap();
        assert_eq!(p1, p2, "LIFO reuse of the freed block");
        // SAFETY: p2 live.
        unsafe { h.deallocate(p2, layout(64)) };
    }

    #[test]
    fn distinct_blocks_do_not_overlap() {
        let mut h = heap();
        let n = 100;
        let sz = 48;
        let ptrs: Vec<NonNull<u8>> = (0..n).map(|_| h.allocate(layout(sz)).unwrap()).collect();
        // Write a distinct pattern into each, then verify.
        for (i, p) in ptrs.iter().enumerate() {
            // SAFETY: each block is sz bytes, live.
            unsafe { std::ptr::write_bytes(p.as_ptr(), i as u8, sz) };
        }
        for (i, p) in ptrs.iter().enumerate() {
            for off in [0, sz / 2, sz - 1] {
                // SAFETY: in-bounds read of live block.
                assert_eq!(unsafe { *p.as_ptr().add(off) }, i as u8);
            }
        }
        for p in ptrs {
            // SAFETY: blocks live until here.
            unsafe { h.deallocate(p, layout(sz)) };
        }
        assert!(h.is_quiescent());
    }

    #[test]
    fn blocks_are_aligned() {
        let mut h = heap();
        for &(size, align) in &[(1usize, 1usize), (24, 8), (100, 16), (100, 64), (5000, 256)] {
            let l = Layout::from_size_align(size, align).unwrap();
            let p = h.allocate(l).unwrap();
            assert_eq!(
                p.as_ptr() as usize % align,
                0,
                "size {size} align {align} misaligned"
            );
            // SAFETY: p live.
            unsafe { h.deallocate(p, l) };
        }
    }

    #[test]
    fn large_allocation_roundtrip() {
        let mut h = heap();
        let l = layout(1 << 20);
        let p = h.allocate(l).unwrap();
        // SAFETY: 1 MiB mapping.
        unsafe {
            *p.as_ptr() = 1;
            *p.as_ptr().add((1 << 20) - 1) = 2;
        }
        assert_eq!(h.stats().large_allocs, 1);
        // SAFETY: p live.
        unsafe { h.deallocate(p, l) };
        assert_eq!(h.stats().large_allocs, 0);
        assert_eq!(h.stats().segments, 0, "large path must not map segments");
    }

    #[test]
    fn many_sizes_stress() {
        let mut h = heap();
        let mut live: Vec<(NonNull<u8>, Layout)> = Vec::new();
        for i in 0..5000usize {
            let size = 1 + (i * 37) % 9000;
            let l = layout(size);
            let p = h.allocate(l).unwrap();
            // SAFETY: fresh block of at least `size` bytes.
            unsafe { std::ptr::write_bytes(p.as_ptr(), (i & 0xff) as u8, size.min(64)) };
            live.push((p, l));
            if i % 3 == 0 {
                let (q, ql) = live.swap_remove(i % live.len());
                // SAFETY: q tracked as live.
                unsafe { h.deallocate(q, ql) };
            }
        }
        let expect_live = live.len() as u64;
        assert_eq!(h.stats().live_total(), expect_live);
        for (p, l) in live {
            // SAFETY: remaining live blocks.
            unsafe { h.deallocate(p, l) };
        }
        assert!(h.is_quiescent());
    }

    #[test]
    fn release_empty_reclaims_segments() {
        let mut h = heap();
        let ptrs: Vec<_> = (0..1000)
            .map(|_| h.allocate(layout(4096)).unwrap())
            .collect();
        assert!(h.stats().segments >= 1);
        for p in ptrs {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, layout(4096)) };
        }
        h.release_empty();
        assert_eq!(h.stats().segments, 0);
        assert_eq!(h.stats().pages_in_use, 0);
        // Heap remains usable afterwards.
        let p = h.allocate(layout(64)).unwrap();
        // SAFETY: live block.
        unsafe { h.deallocate(p, layout(64)) };
    }

    #[test]
    fn zero_size_rejected() {
        let mut h = heap();
        assert_eq!(
            h.allocate(Layout::from_size_align(0, 1).unwrap()),
            Err(AllocError::ZeroSize)
        );
    }

    #[test]
    fn stats_track_peak() {
        let mut h = heap();
        let a = h.allocate(layout(1024)).unwrap();
        let b = h.allocate(layout(1024)).unwrap();
        // SAFETY: a and b live.
        unsafe {
            h.deallocate(a, layout(1024));
            h.deallocate(b, layout(1024));
        }
        assert_eq!(h.stats().peak_live_bytes, 2048);
        assert_eq!(h.stats().live_bytes, 0);
    }

    #[test]
    fn batch_allocates_distinct_writable_blocks() {
        let mut h = heap();
        let class = crate::classes::size_to_class(64).unwrap();
        let mut blocks = Vec::new();
        let n = h
            .allocate_batch(class, 300, &mut |p| blocks.push(p))
            .unwrap();
        assert_eq!(n, 300);
        assert_eq!(h.stats().live_blocks, 300);
        assert_eq!(h.stats().total_allocs, 300);
        let distinct: std::collections::HashSet<_> =
            blocks.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(distinct.len(), 300, "batch must not alias blocks");
        for (i, p) in blocks.iter().enumerate() {
            // SAFETY: live 64-byte block.
            unsafe { std::ptr::write_bytes(p.as_ptr(), i as u8, 64) };
        }
        for (i, p) in blocks.iter().enumerate() {
            // SAFETY: in-bounds read of live block.
            assert_eq!(unsafe { *p.as_ptr().add(63) }, i as u8);
        }
        // SAFETY: all blocks live, freed exactly once.
        unsafe { h.deallocate_batch(blocks) };
        assert!(h.is_quiescent());
        assert_eq!(h.stats().total_frees, 300);
    }

    #[test]
    fn batch_alloc_matches_single_alloc_accounting() {
        let mut single = heap();
        let mut batched = heap();
        let class = crate::classes::size_to_class(100).unwrap();
        let l = Layout::from_size_align(class_to_size(class), 8).unwrap();
        let singles: Vec<_> = (0..50).map(|_| single.allocate(l).unwrap()).collect();
        let mut batch = Vec::new();
        batched
            .allocate_batch(class, 50, &mut |p| batch.push(p))
            .unwrap();
        assert_eq!(single.stats().live_bytes, batched.stats().live_bytes);
        assert_eq!(
            single.stats().peak_live_bytes,
            batched.stats().peak_live_bytes
        );
        for p in singles {
            // SAFETY: live blocks.
            unsafe { single.deallocate(p, l) };
        }
        // SAFETY: live blocks from the batch.
        unsafe { batched.deallocate_batch(batch) };
        assert_eq!(single.stats(), batched.stats());
    }

    #[test]
    fn page_exhaustion_spills_to_new_page() {
        let mut h = heap();
        // 8192-byte blocks: 8 per page; allocate enough for several pages.
        let ptrs: Vec<_> = (0..40).map(|_| h.allocate(layout(8192)).unwrap()).collect();
        assert!(h.stats().pages_in_use >= 5);
        let distinct: std::collections::HashSet<_> =
            ptrs.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(distinct.len(), 40);
        for p in ptrs {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, layout(8192)) };
        }
    }
}
