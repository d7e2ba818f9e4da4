//! The paged heap: both halves of the paper's Figure 2, as one type.
//!
//! Segments carved into 64 KiB pages, one size class per page, a
//! page-local LIFO free list of 16-bit block indices — all of that is
//! [`PagedHeap`], written once. Figure 2's two layouts differ in exactly
//! one thing, *where a free block's link to the next free block lives*,
//! and that is the type parameter:
//!
//! * [`IndexArray`] ([`SegregatedHeap`]) keeps the links in the
//!   segment's metadata region — "instead of an 8-byte pointer, a smaller
//!   index (16-bit for example) can be used" — so no allocator store ever
//!   lands in a user block. This is NextGen-Malloc's service-side heap:
//!   metadata lines stay private to the core that runs it.
//! * [`InBlock`] ([`AggregatedHeap`]) keeps them where PTMalloc2 and
//!   Mimalloc do: "the first 8 bytes (assuming 64-bit word size) of each
//!   free block are used as the pointer to the next free block." The line
//!   a `malloc()` touches is the line the program writes next — good
//!   locality on the same core, and the coupling that makes the allocator
//!   impossible to pluck out onto its own.
//!
//! Placement is therefore identical across the two by construction, which
//! is what makes Figure 2 a measurement of the layout alone.
//!
//! The heap is strictly single-owner (`&mut self` everywhere, no atomics,
//! not `Sync`): when it runs on the dedicated service core, §3.1.3's
//! "sequential execution can be guaranteed" holds structurally and every
//! atomic a conventional UMA would need is simply absent.

use std::alloc::Layout;
use std::marker::PhantomData;
use std::ptr::NonNull;

use crate::classes::{class_to_size, layout_to_class, SizeClass, NUM_CLASSES};
use crate::error::AllocError;
use crate::segment::{
    PageDesc, SegmentHeader, SegmentRef, FIRST_PAGE, NO_BLOCK, NO_CLASS, PAGES_PER_SEGMENT,
    PAGE_SIZE,
};
use crate::stats::HeapStats;
use crate::sys::{map_large, unmap_large};
use crate::Heap;

mod sealed {
    pub trait Sealed {}
}

/// Where a free block's link — the 16-bit index of the next free block
/// of its page — is stored. Sealed: the two layouts of Figure 2 are the
/// two impls.
pub trait FreeLinks: sealed::Sealed {
    /// Reads the link of free block `idx`.
    ///
    /// # Safety
    ///
    /// Exclusive access to live segment `seg`, whose page `page` holds
    /// `block_size`-byte blocks; block `idx` is free and its link was
    /// written by [`FreeLinks::store`] when it was freed.
    unsafe fn load(seg: SegmentRef, page: usize, block_size: usize, idx: u16) -> u16;

    /// Writes `next` as the link of block `idx`, which is being freed.
    ///
    /// # Safety
    ///
    /// As [`FreeLinks::load`], except that block `idx` is a dead block of
    /// the page that nothing else refers to any more.
    unsafe fn store(seg: SegmentRef, page: usize, block_size: usize, idx: u16, next: u16);
}

/// Segregated layout: links live in the page's index array, in the
/// segment's metadata region.
pub struct IndexArray;

/// Aggregated layout: links live in the first word of the dead block
/// itself, interspersed with user data.
pub struct InBlock;

impl sealed::Sealed for IndexArray {}
impl sealed::Sealed for InBlock {}

impl FreeLinks for IndexArray {
    #[inline]
    unsafe fn load(seg: SegmentRef, page: usize, _: usize, idx: u16) -> u16 {
        // SAFETY: idx < nblocks <= MAX_BLOCKS, so the slot is inside the
        // page's array; it was initialized when the block was freed.
        unsafe { *seg.index_array(page).add(idx as usize) }
    }

    #[inline]
    unsafe fn store(seg: SegmentRef, page: usize, _: usize, idx: u16, next: u16) {
        // SAFETY: idx < nblocks <= MAX_BLOCKS.
        unsafe { *seg.index_array(page).add(idx as usize) = next };
    }
}

impl InBlock {
    #[inline]
    fn word(seg: SegmentRef, page: usize, block_size: usize, idx: u16) -> *mut u64 {
        (seg.page_base(page).as_ptr() as usize + idx as usize * block_size) as *mut u64
    }
}

impl FreeLinks for InBlock {
    #[inline]
    unsafe fn load(seg: SegmentRef, page: usize, block_size: usize, idx: u16) -> u16 {
        // SAFETY: the block start is in bounds and 8-byte readable (block
        // sizes are multiples of 16) and holds the word `store` wrote.
        unsafe { Self::word(seg, page, block_size, idx).read() as u16 }
    }

    #[inline]
    unsafe fn store(seg: SegmentRef, page: usize, block_size: usize, idx: u16, next: u16) {
        // This store is the "metadata interspersed with data" of the
        // aggregated layout: it touches the *user data* cache line.
        // SAFETY: in bounds, 8-byte writable, and the block is dead.
        unsafe { Self::word(seg, page, block_size, idx).write(u64::from(next)) };
    }
}

/// A single-owner heap of size-class pages whose free lists are linked
/// through `L`.
pub struct PagedHeap<L: FreeLinks> {
    owner_id: u64,
    /// Stamped into each segment's `owner_ctx` (used by `ShardedHeap` to
    /// route cross-thread frees). Null for plain heaps.
    owner_ctx: *mut u8,
    /// Intrusive list of segments (via `SegmentHeader::next_segment`).
    segments: *mut SegmentHeader,
    /// Head of the partially-free page list per size class.
    bins: [*mut PageDesc; NUM_CLASSES],
    stats: HeapStats,
    links: PhantomData<L>,
}

/// Figure 2's segregated layout — NextGen-Malloc's service-side heap.
pub type SegregatedHeap = PagedHeap<IndexArray>;

/// Figure 2's aggregated layout — the reference the other is measured
/// against.
pub type AggregatedHeap = PagedHeap<InBlock>;

// SAFETY: the heap owns its segments exclusively; the raw pointers are not
// shared with any other thread unless an owner (the fallback heap's lock,
// the offload service) serializes access, and `L` is a zero-sized marker.
// Moving the heap to another thread is sound.
unsafe impl<L: FreeLinks> Send for PagedHeap<L> {}

impl<L: FreeLinks> PagedHeap<L> {
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
        PagedHeap {
            owner_id,
            owner_ctx: ctx,
            segments: std::ptr::null_mut(),
            bins: [std::ptr::null_mut(); NUM_CLASSES],
            stats: HeapStats::default(),
            links: PhantomData,
        }
    }

    /// The identifier segments are stamped with.
    pub fn owner_id(&self) -> u64 {
        self.owner_id
    }

    /// Frees a small block located purely from its address, reading the
    /// size class from the page descriptor: the block is linked onto its
    /// page's free list and the page goes back into its class's bin.
    ///
    /// Every small free ends here — [`Heap::deallocate`],
    /// [`PagedHeap::deallocate_batch`], and the drains of remote-free and
    /// orphan stacks, where the original `Layout` is not carried with the
    /// pointer.
    ///
    /// # Safety
    ///
    /// `ptr` must be a live small block previously returned by
    /// `allocate` on this heap and not freed since.
    #[inline]
    pub unsafe fn deallocate_by_ptr(&mut self, ptr: NonNull<u8>) {
        // SAFETY: per contract, ptr is interior to one of our segments.
        let seg = unsafe { SegmentRef::of_ptr(ptr) };
        // SAFETY: as above.
        let (page, block) = unsafe { seg.locate(ptr) };
        // SAFETY: exclusive access.
        let d = unsafe { seg.desc(page) };
        debug_assert!(d.class != NO_CLASS && d.used > 0);
        // SAFETY: block < nblocks, and the block is dead: we own it now.
        unsafe { L::store(seg, page, d.block_size as usize, block as u16, d.free_head) };
        d.free_head = block as u16;
        d.used -= 1;
        if !d.in_bin {
            self.push_bin(d);
        }
        self.stats.live_blocks -= 1;
        self.stats.live_bytes -= u64::from(d.block_size);
        self.stats.total_frees += 1;
    }

    /// Links an assigned page with free space at the head of its class's
    /// bin.
    fn push_bin(&mut self, d: &mut PageDesc) {
        let class = d.class as usize;
        d.in_bin = true;
        d.next_in_bin = self.bins[class];
        self.bins[class] = d;
    }

    fn note_allocs(&mut self, blocks: u64, size: u64) {
        self.stats.live_blocks += blocks;
        self.stats.live_bytes += blocks * size;
        self.stats.total_allocs += blocks;
        self.bump_peak();
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
        let block_size = d.block_size as usize;
        let idx = if d.free_head != NO_BLOCK {
            let idx = d.free_head;
            // SAFETY: free_head names a free block (idx < bump <=
            // nblocks) whose link was stored when it was freed.
            d.free_head = unsafe { L::load(seg, page, block_size, idx) };
            idx
        } else {
            let idx = d.bump;
            d.bump += 1;
            idx
        };
        d.used += 1;
        // SAFETY: idx < nblocks and nblocks*block_size <= PAGE_SIZE.
        let addr = unsafe { seg.page_base(page).as_ptr().add(idx as usize * block_size) };
        NonNull::new(addr).expect("block address in mapped page is non-null")
    }

    /// Takes a page from any segment (or a new segment) and assigns it to
    /// `class`. The slow path: kept out of line so the bin-head pop that
    /// calls it stays small wherever the heap is instantiated.
    ///
    /// Before it maps a segment it takes back the empty pages other
    /// classes still hold, so the heap grows only when its live pages
    /// fill every segment, not when housekeeping has not run lately.
    #[cold]
    fn assign_fresh_page(&mut self, class: usize) -> Result<(SegmentRef, usize), AllocError> {
        let found = self.take_page().or_else(|| {
            self.reclaim_empty_pages();
            self.take_page()
        });
        if let Some((seg, page)) = found {
            self.init_page(seg, page, class);
            return Ok((seg, page));
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
        self.segments = seg.base().as_ptr().cast();
        self.stats.segments += 1;
        // SAFETY: fresh segment has pages available.
        let page = unsafe { seg.alloc_page() }.expect("fresh segment must have pages");
        self.init_page(seg, page, class);
        Ok((seg, page))
    }

    /// Pops a free page from the first segment in the list that has one.
    fn take_page(&self) -> Option<(SegmentRef, usize)> {
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: segments in our list are alive and exclusively ours.
            if let Some(page) = unsafe { seg.alloc_page() } {
                return Some((seg, page));
            }
            // SAFETY: as above.
            cur = unsafe { seg.header().next_segment };
        }
        None
    }

    fn init_page(&mut self, seg: SegmentRef, page: usize, class: usize) {
        let size = class_to_size(SizeClass(class as u16));
        // SAFETY: page freshly popped, exclusive access.
        let d = unsafe { seg.desc(page) };
        d.class = class as u16;
        d.block_size = size as u32;
        d.nblocks = (PAGE_SIZE / size) as u16;
        d.used = 0;
        d.bump = 0;
        d.free_head = NO_BLOCK;
        self.push_bin(d);
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
                return Ok(unsafe { self.pop_block(seg, page) });
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
        class: SizeClass,
        count: usize,
        sink: &mut dyn FnMut(NonNull<u8>),
    ) -> Result<usize, AllocError> {
        let mut n = 0;
        while n < count {
            match self.alloc_small(class.0 as usize) {
                Ok(p) => sink(p),
                Err(e) if n == 0 => return Err(e),
                Err(_) => break,
            }
            n += 1;
        }
        self.note_allocs(n as u64, class_to_size(class) as u64);
        Ok(n)
    }

    /// Frees a batch of small blocks located from their addresses alone
    /// (the bulk form of [`PagedHeap::deallocate_by_ptr`], used when a
    /// client flushes its buffered frees or returns an unused magazine).
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

    /// Returns every assigned page with no live block to its segment and
    /// rebuilds the bins from the pages that still have free space.
    fn reclaim_empty_pages(&mut self) {
        self.bins = [std::ptr::null_mut(); NUM_CLASSES];
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            for page in FIRST_PAGE..PAGES_PER_SEGMENT {
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
                    self.push_bin(d);
                }
            }
            // SAFETY: our live segment.
            cur = unsafe { seg.header().next_segment };
        }
    }

    /// Housekeeping: returns fully-free pages to their segments, rebuilds
    /// the bins, and unmaps segments with no pages in use. The segments
    /// kept stay in their order, so where the next fresh page comes from
    /// does not depend on how many times this ran.
    ///
    /// Intended to run from the service core's idle hook — deferred work is
    /// free there, which is one of the paper's arguments for the dedicated
    /// room.
    pub fn release_empty(&mut self) {
        self.reclaim_empty_pages();
        let mut cur = std::mem::replace(&mut self.segments, std::ptr::null_mut());
        let mut tail: *mut SegmentHeader = std::ptr::null_mut();
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: our live segment.
            let next = unsafe { seg.header().next_segment };
            // SAFETY: exclusive access.
            if unsafe { seg.header().pages_in_use } == 0 {
                self.stats.segments -= 1;
                // SAFETY: no live blocks or bin links reference it (bins
                // were rebuilt above and skip this segment's pages).
                unsafe { seg.destroy() };
            } else {
                // SAFETY: exclusive access to this segment and to `tail`,
                // the last one kept.
                unsafe {
                    seg.header().next_segment = std::ptr::null_mut();
                    if tail.is_null() {
                        self.segments = cur;
                    } else {
                        SegmentRef::from_raw(tail).header().next_segment = cur;
                    }
                }
                tail = cur;
            }
            cur = next;
        }
    }

    /// True when no small or large allocation is live.
    pub fn is_quiescent(&self) -> bool {
        self.stats.live_blocks == 0 && self.stats.large_allocs == 0
    }
}

// SAFETY: `allocate` returns blocks carved from freshly mapped pages (or
// dedicated mappings) that are aligned per `layout_to_class` routing and
// not aliased until freed.
//
// Both entry points stay out of line, as they were when each layout was a
// concrete type of this crate: generic code is instantiated in the calling
// crate, and inlined into a caller's loop LLVM pairs `deallocate`'s two
// counter updates into one 16-byte access that cannot forward from
// `allocate`'s 8-byte stores (`heap.pair_1k_ns` read 22 ns for 13).
unsafe impl<L: FreeLinks> Heap for PagedHeap<L> {
    #[inline(never)]
    fn allocate(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout.size() == 0 {
            return Err(AllocError::ZeroSize);
        }
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                let p = self.alloc_small(class.0 as usize)?;
                self.note_allocs(1, class_to_size(class) as u64);
                Ok(p)
            }
            None => self.alloc_large(layout),
        }
    }

    #[inline(never)]
    unsafe fn deallocate(&mut self, ptr: NonNull<u8>, layout: Layout) {
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                // SAFETY: `ptr` came from `allocate` on this heap, so it is
                // a live small block interior to one of our segments.
                unsafe {
                    let seg = SegmentRef::of_ptr(ptr);
                    debug_assert_eq!(
                        seg.desc(seg.locate(ptr).0).class,
                        class.0,
                        "layout/class mismatch in deallocate"
                    );
                    self.deallocate_by_ptr(ptr);
                }
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

impl<L: FreeLinks> Drop for PagedHeap<L> {
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
    use crate::classes::{size_to_class, SMALL_MAX};
    use crate::segment::{PAGE_SIZE, SEGMENT_SIZE};

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
        for &(size, align) in &[
            (1usize, 1usize),
            (24, 8),
            (100, 16),
            (100, 64),
            (5000, 256),
            (9000, 64),
            (9000, 4096),
            (SMALL_MAX, SMALL_MAX),
        ] {
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
            // Every class, and a tenth of the range on the large path.
            let size = 1 + (i * 37) % (SMALL_MAX + SMALL_MAX / 10);
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

    /// Blocks of `size` that fill every page of one segment.
    fn one_segment_of(size: usize) -> usize {
        (PAGES_PER_SEGMENT - FIRST_PAGE) * (PAGE_SIZE / size)
    }

    #[test]
    fn a_full_segment_takes_back_empty_pages_before_the_heap_grows() {
        let mut h = heap();
        let big: Vec<_> = (0..one_segment_of(8192))
            .map(|_| h.allocate(layout(8192)).unwrap())
            .collect();
        for p in big {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, layout(8192)) };
        }
        // Every page is empty but still assigned to the 8 KiB class.
        assert_eq!(
            h.stats().pages_in_use,
            (PAGES_PER_SEGMENT - FIRST_PAGE) as u64
        );
        let small: Vec<_> = (0..one_segment_of(4096))
            .map(|_| h.allocate(layout(4096)).unwrap())
            .collect();
        assert_eq!(
            h.stats().segments,
            1,
            "no segment mapped while pages sat empty"
        );
        for p in small {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, layout(4096)) };
        }
    }

    #[test]
    fn release_empty_keeps_the_segments_it_keeps_in_order() {
        let mut h = heap();
        let per = one_segment_of(8192);
        let mut blocks: Vec<_> = (0..3 * per)
            .map(|_| h.allocate(layout(8192)).unwrap())
            .collect();
        let order = |h: &SegregatedHeap| {
            let mut list = Vec::new();
            let mut cur = h.segments;
            while !cur.is_null() {
                list.push(cur as usize);
                // SAFETY: our live segment.
                cur = unsafe { SegmentRef::from_raw(cur).header().next_segment };
            }
            list
        };
        let before = order(&h);
        assert_eq!(before.len(), 3);
        // Empty the middle segment of the list.
        blocks.retain(|p| {
            let in_middle = p.as_ptr() as usize & !(SEGMENT_SIZE - 1) == before[1];
            if in_middle {
                // SAFETY: live block, freed once and dropped from the list.
                unsafe { h.deallocate(*p, layout(8192)) };
            }
            !in_middle
        });
        for _ in 0..2 {
            h.release_empty();
            assert_eq!(order(&h), [before[0], before[2]]);
        }
        for p in blocks {
            // SAFETY: remaining live blocks.
            unsafe { h.deallocate(p, layout(8192)) };
        }
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

    /// The table's last doubling (10–16 KiB): `PAGE_SIZE / size` blocks
    /// share one page, the next one opens a second, and freeing them all
    /// gives both pages — and the segment — back.
    fn last_doubling_packs_whole_pages_on<L: FreeLinks>() {
        for &size in &crate::classes::CLASS_SIZES[NUM_CLASSES - 4..] {
            assert!(size > SMALL_MAX / 2);
            let mut h = PagedHeap::<L>::new(1);
            let l = layout(size - 100);
            assert_eq!(size_to_class(l.size()).map(class_to_size), Some(size));
            let per_page = PAGE_SIZE / size;
            let mut blocks: Vec<_> = (0..per_page).map(|_| h.allocate(l).unwrap()).collect();
            assert_eq!(h.stats().pages_in_use, 1, "{per_page} x {size} fit a page");
            let page = blocks[0].as_ptr() as usize & !(PAGE_SIZE - 1);
            for (i, p) in blocks.iter().enumerate() {
                assert_eq!(p.as_ptr() as usize, page + i * size);
                // SAFETY: live block of `size` bytes.
                unsafe { *p.as_ptr().add(size - 1) = i as u8 };
            }
            blocks.push(h.allocate(l).unwrap());
            assert_eq!(h.stats().pages_in_use, 2, "block {per_page} spills");
            assert_eq!(h.stats().live_bytes, ((per_page + 1) * size) as u64);
            // SAFETY: live blocks, freed once.
            unsafe { h.deallocate_batch(blocks) };
            assert!(h.is_quiescent());
            h.release_empty();
            assert_eq!((h.stats().pages_in_use, h.stats().segments), (0, 0));
        }
    }

    #[test]
    fn last_doubling_packs_whole_pages() {
        last_doubling_packs_whole_pages_on::<IndexArray>();
        last_doubling_packs_whole_pages_on::<InBlock>();
    }

    // ---- the batch surface, once per link store ----

    fn batch_allocates_distinct_writable_blocks_on<L: FreeLinks>() {
        let mut h = PagedHeap::<L>::new(1);
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
    fn batch_allocates_distinct_writable_blocks() {
        batch_allocates_distinct_writable_blocks_on::<IndexArray>();
        batch_allocates_distinct_writable_blocks_on::<InBlock>();
    }

    fn batch_free_matches_single_free_accounting_on<L: FreeLinks>() {
        let mut single = PagedHeap::<L>::new(1);
        let mut batched = PagedHeap::<L>::new(1);
        let class = crate::classes::size_to_class(100).unwrap();
        let l = Layout::from_size_align(class_to_size(class), 8).unwrap();
        let singles: Vec<_> = (0..50).map(|_| single.allocate(l).unwrap()).collect();
        let mut batch = Vec::new();
        batched
            .allocate_batch(class, 50, &mut |p| batch.push(p))
            .unwrap();
        assert_eq!(single.stats(), batched.stats());
        for p in singles {
            // SAFETY: live blocks.
            unsafe { single.deallocate(p, l) };
        }
        // SAFETY: live blocks from the batch.
        unsafe { batched.deallocate_batch(batch.iter().copied()) };
        assert_eq!(single.stats(), batched.stats());
        // The batch free linked the blocks exactly as single frees do:
        // both heaps hand them back in the same (LIFO) order.
        for p in batch.iter().rev() {
            assert_eq!(batched.allocate(l).unwrap(), *p);
        }
    }

    #[test]
    fn batch_alloc_matches_single_alloc_accounting() {
        batch_free_matches_single_free_accounting_on::<IndexArray>();
        batch_free_matches_single_free_accounting_on::<InBlock>();
    }

    // ---- the one difference between the layouts, asserted ----

    /// Replays one alloc/free script; returns each block's (segment in
    /// first-seen order, offset within it) in hand-out order and the
    /// closing stats. No segment is ever unmapped, so the ordinals are
    /// stable.
    fn replay<L: FreeLinks>() -> (Vec<(usize, usize)>, HeapStats) {
        let mut h = PagedHeap::<L>::new(7);
        let mut segments: Vec<usize> = Vec::new();
        let mut placed = Vec::new();
        let mut live: Vec<(NonNull<u8>, Layout)> = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..8000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as usize;
            if r % 5 < 3 || live.is_empty() {
                let l = layout(1 + (r >> 3) % SMALL_MAX);
                let p = h.allocate(l).unwrap();
                let base = p.as_ptr() as usize & !(SEGMENT_SIZE - 1);
                let seg = segments.iter().position(|&b| b == base).unwrap_or_else(|| {
                    segments.push(base);
                    segments.len() - 1
                });
                placed.push((seg, p.as_ptr() as usize - base));
                live.push((p, l));
            } else {
                let (p, l) = live.swap_remove((r >> 3) % live.len());
                // SAFETY: tracked as live, freed once.
                unsafe { h.deallocate(p, l) };
            }
        }
        for (p, l) in live {
            // SAFETY: remaining live blocks.
            unsafe { h.deallocate(p, l) };
        }
        (placed, h.stats())
    }

    #[test]
    fn both_layouts_place_blocks_identically() {
        let (seg_placed, seg_stats) = replay::<IndexArray>();
        let (agg_placed, agg_stats) = replay::<InBlock>();
        assert!(seg_placed.len() > 4000 && seg_stats.segments >= 2);
        assert_eq!(seg_placed, agg_placed, "placement is not the layout's");
        assert_eq!(seg_stats, agg_stats);
    }

    /// What one free writes: frees the middle one of three 64-byte blocks
    /// (after freeing the last, so the link is a real, non-zero index) and
    /// returns the dead block's bytes and its page's index array, before
    /// and after.
    fn free_footprint<L: FreeLinks>() -> [Vec<u8>; 4] {
        let mut h = PagedHeap::<L>::new(7);
        let l = layout(64);
        let blocks: Vec<_> = (0..3).map(|_| h.allocate(l).unwrap()).collect();
        let victim = blocks[1];
        // SAFETY: live 64-byte blocks of one page of a live segment; the
        // victim's memory stays mapped after its free (the heap is alive).
        unsafe {
            let seg = SegmentRef::of_ptr(victim);
            let (page, block) = seg.locate(victim);
            assert_eq!(block, 1);
            let index = seg.index_array(page).cast::<u8>();
            let nbytes = 2 * seg.desc(page).nblocks as usize;
            let snapshot = |p: *mut u8, n| std::slice::from_raw_parts(p, n).to_vec();
            h.deallocate(blocks[2], l);
            std::ptr::write_bytes(victim.as_ptr(), 0xC3, 64);
            let (block_before, index_before) =
                (snapshot(victim.as_ptr(), 64), snapshot(index, nbytes));
            h.deallocate(victim, l);
            let (block_after, index_after) =
                (snapshot(victim.as_ptr(), 64), snapshot(index, nbytes));
            assert_eq!(h.allocate(l).unwrap(), victim, "LIFO reuse");
            assert_eq!(h.allocate(l).unwrap(), blocks[2], "the link was followed");
            [block_before, block_after, index_before, index_after]
        }
    }

    #[test]
    fn index_array_free_never_touches_the_block() {
        let [block_before, block_after, index_before, index_after] = free_footprint::<IndexArray>();
        assert_eq!(block_before, block_after, "dead block's bytes untouched");
        assert_ne!(index_before, index_after, "the link went to the metadata");
    }

    #[test]
    fn in_block_free_writes_only_the_first_word() {
        let [block_before, block_after, index_before, index_after] = free_footprint::<InBlock>();
        assert_eq!(index_before, index_after, "index array untouched");
        assert_eq!(block_before[8..], block_after[8..], "only the first word");
        // The word is the previous list head: block 2, freed just before.
        assert_eq!(block_after[..8], 2u64.to_ne_bytes());
    }

    // ---- the aggregated heap's own tests, on the alias ----

    #[test]
    fn aggregated_roundtrip_and_reuse() {
        let mut h = AggregatedHeap::new(2);
        let p = h.allocate(layout(64)).unwrap();
        // SAFETY: live block.
        unsafe {
            std::ptr::write_bytes(p.as_ptr(), 0x5A, 64);
            h.deallocate(p, layout(64));
        }
        let q = h.allocate(layout(64)).unwrap();
        assert_eq!(p, q, "LIFO reuse");
        // The reused block's first word held the free-list link — the
        // aggregated layout's hallmark; content is whatever the list left.
        // SAFETY: live block.
        unsafe { h.deallocate(q, layout(64)) };
    }

    #[test]
    fn aggregated_free_list_chain_survives_many_pushes() {
        let mut h = AggregatedHeap::new(2);
        let ptrs: Vec<_> = (0..64).map(|_| h.allocate(layout(128)).unwrap()).collect();
        for p in &ptrs {
            // SAFETY: live blocks.
            unsafe { h.deallocate(*p, layout(128)) };
        }
        // Reallocate all 64: should come back in reverse (LIFO) order.
        let again: Vec<_> = (0..64).map(|_| h.allocate(layout(128)).unwrap()).collect();
        let expect: Vec<_> = ptrs.iter().rev().cloned().collect();
        assert_eq!(again, expect);
        for p in again {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, layout(128)) };
        }
    }

    #[test]
    fn aggregated_no_overlap_across_classes() {
        let mut h = AggregatedHeap::new(2);
        let mut live = Vec::new();
        for i in 0..2000usize {
            let size = 16 + (i * 53) % 4000;
            let l = layout(size);
            let p = h.allocate(l).unwrap();
            // SAFETY: fresh block.
            unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8, size.min(32)) };
            live.push((p, l, (i % 251) as u8));
        }
        for (p, _, tag) in &live {
            // SAFETY: live block, first byte was written with the tag.
            assert_eq!(unsafe { *p.as_ptr() }, *tag);
        }
        for (p, l, _) in live {
            // SAFETY: live blocks.
            unsafe { h.deallocate(p, l) };
        }
        assert_eq!(h.stats().live_blocks, 0);
    }

    #[test]
    fn aggregated_stats_mirror_segregated() {
        let mut h = AggregatedHeap::new(2);
        let p = h.allocate(layout(100)).unwrap();
        assert_eq!(h.stats().live_blocks, 1);
        assert_eq!(h.stats().live_bytes, 112); // class for 100
                                               // SAFETY: live block.
        unsafe { h.deallocate(p, layout(100)) };
        assert_eq!(h.stats().live_bytes, 0);
    }

    #[test]
    fn aggregated_large_path_matches() {
        let mut h = AggregatedHeap::new(2);
        let l = layout(100_000);
        let p = h.allocate(l).unwrap();
        // SAFETY: 100 KB mapping.
        unsafe { *p.as_ptr().add(99_999) = 7 };
        // SAFETY: live large block.
        unsafe { h.deallocate(p, l) };
        assert_eq!(h.stats().large_allocs, 0);
    }
}
