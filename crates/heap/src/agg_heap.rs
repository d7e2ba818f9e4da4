//! The aggregated-layout heap: Figure 2's other half.
//!
//! "In Aggregated Layout, the first 8 bytes (assuming 64-bit word size) of
//! each free block are used as the pointer to the next free block." Free
//! lists are threaded *through the blocks themselves*, so allocator
//! metadata and user data share cache lines. On the plus side, the line a
//! `malloc()` touches is the very line the program will write next —
//! better spatial locality *when the allocator runs on the same core*; on
//! the minus side, this is the coupling that makes the allocator
//! impossible to pluck out onto its own core.
//!
//! The implementation reuses the segment/page machinery; only the free
//! list storage differs from [`crate::SegregatedHeap`].

use std::alloc::Layout;
use std::ptr::NonNull;

use crate::classes::{class_to_size, layout_to_class, NUM_CLASSES};
use crate::error::AllocError;
use crate::segment::{PageDesc, SegmentRef, NO_BLOCK, PAGE_SIZE};
use crate::stats::HeapStats;
use crate::sys::{map_large, unmap_large};
use crate::Heap;

/// A single-owner heap whose free lists live inside the free blocks.
pub struct AggregatedHeap {
    owner_id: u64,
    segments: *mut crate::segment::SegmentHeader,
    bins: [*mut PageDesc; NUM_CLASSES],
    stats: HeapStats,
}

// SAFETY: identical ownership story to SegregatedHeap — the heap owns its
// segments exclusively and may migrate between threads.
unsafe impl Send for AggregatedHeap {}

impl AggregatedHeap {
    /// Creates an empty heap; memory is mapped on first use.
    pub fn new(owner_id: u64) -> Self {
        AggregatedHeap {
            owner_id,
            segments: std::ptr::null_mut(),
            bins: [std::ptr::null_mut(); NUM_CLASSES],
            stats: HeapStats::default(),
        }
    }

    fn bump_peak(&mut self) {
        let live = self.stats.live_bytes + self.stats.large_bytes;
        if live > self.stats.peak_live_bytes {
            self.stats.peak_live_bytes = live;
        }
    }

    /// Reads the in-block next pointer of free block `idx` (stored in the
    /// block's first 8 bytes as a block index, mimicking the pointer chain
    /// with bounds-checkable values).
    ///
    /// # Safety
    ///
    /// `idx` must be a currently-free block of an assigned page; the block
    /// was written by `push_free` when it was freed.
    unsafe fn read_next(seg: SegmentRef, page: usize, block_size: usize, idx: u16) -> u16 {
        let base = seg.page_base(page).as_ptr() as usize + idx as usize * block_size;
        // SAFETY: block start is in-bounds and 8-byte readable (min block
        // size is 16) and holds the u64 written at free time.
        unsafe { (base as *const u64).read() as u16 }
    }

    /// Writes the next pointer into the block itself — this store is the
    /// "metadata interspersed with data" of the aggregated layout.
    ///
    /// # Safety
    ///
    /// `idx` must address a block that is being freed (exclusive access).
    unsafe fn write_next(seg: SegmentRef, page: usize, block_size: usize, idx: u16, next: u16) {
        let base = seg.page_base(page).as_ptr() as usize + idx as usize * block_size;
        // SAFETY: in-bounds, 8-byte writable, block is dead (being freed).
        unsafe { (base as *mut u64).write(next as u64) };
    }

    /// # Safety
    ///
    /// Exclusive access; page assigned and has space.
    unsafe fn pop_block(&mut self, seg: SegmentRef, page: usize) -> NonNull<u8> {
        // SAFETY: per contract.
        let d = unsafe { seg.desc(page) };
        debug_assert!(d.has_space());
        let block_size = d.block_size as usize;
        let idx = if d.free_head != NO_BLOCK {
            let idx = d.free_head;
            // SAFETY: free_head names a free block whose first word was
            // written when it was pushed.
            d.free_head = unsafe { Self::read_next(seg, page, block_size, idx) };
            idx
        } else {
            let idx = d.bump;
            d.bump += 1;
            idx
        };
        d.used += 1;
        // SAFETY: idx < nblocks.
        let addr = unsafe { seg.page_base(page).as_ptr().add(idx as usize * block_size) };
        NonNull::new(addr).expect("block address non-null")
    }

    fn assign_fresh_page(&mut self, class: usize) -> Result<(SegmentRef, usize), AllocError> {
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: our live, exclusively-owned segment.
            if let Some(page) = unsafe { seg.alloc_page() } {
                self.init_page(seg, page, class);
                return Ok((seg, page));
            }
            // SAFETY: as above.
            cur = unsafe { seg.header().next_segment };
        }
        let seg = SegmentRef::create(self.owner_id)?;
        // SAFETY: fresh segment.
        unsafe { seg.header().next_segment = self.segments };
        self.segments = seg.base().as_ptr().cast();
        self.stats.segments += 1;
        // SAFETY: fresh segment has pages.
        let page = unsafe { seg.alloc_page() }.expect("fresh segment must have pages");
        self.init_page(seg, page, class);
        Ok((seg, page))
    }

    fn init_page(&mut self, seg: SegmentRef, page: usize, class: usize) {
        let size = class_to_size(crate::classes::SizeClass(class as u16));
        // SAFETY: freshly popped page, exclusive.
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
            // SAFETY: bin entries are descriptors in our live segments.
            let d = unsafe { &mut *head };
            if d.has_space() {
                let page = d.page_index as usize;
                // SAFETY: descriptor is interior to its segment.
                let seg = unsafe {
                    SegmentRef::of_ptr(NonNull::new(head.cast::<u8>()).expect("non-null desc"))
                };
                // SAFETY: exclusive, assigned, has space.
                return Ok(unsafe { self.pop_block(seg, page) });
            }
            self.bins[class] = d.next_in_bin;
            d.in_bin = false;
            d.next_in_bin = std::ptr::null_mut();
        }
        let (seg, page) = self.assign_fresh_page(class)?;
        // SAFETY: fresh page has space.
        Ok(unsafe { self.pop_block(seg, page) })
    }
}

// SAFETY: same contract as SegregatedHeap — fresh, aligned, non-aliased
// blocks.
unsafe impl Heap for AggregatedHeap {
    fn allocate(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout.size() == 0 {
            return Err(AllocError::ZeroSize);
        }
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                let p = self.alloc_small(class.0 as usize)?;
                self.stats.live_blocks += 1;
                self.stats.live_bytes += class_to_size(class) as u64;
                self.stats.total_allocs += 1;
                self.bump_peak();
                Ok(p)
            }
            None => {
                let (ptr, len) = map_large(layout)?;
                self.stats.large_allocs += 1;
                self.stats.large_bytes += len as u64;
                self.stats.total_allocs += 1;
                self.bump_peak();
                Ok(ptr)
            }
        }
    }

    unsafe fn deallocate(&mut self, ptr: NonNull<u8>, layout: Layout) {
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => {
                // SAFETY: ptr came from this heap's allocate → interior to
                // a live segment of ours.
                let seg = unsafe { SegmentRef::of_ptr(ptr) };
                // SAFETY: as above.
                let (page, block) = unsafe { seg.locate(ptr) };
                // SAFETY: exclusive access.
                let d = unsafe { seg.desc(page) };
                debug_assert_eq!(d.class, class.0);
                let block_size = d.block_size as usize;
                // Thread the freed block onto the in-block list: the write
                // below touches the *user data* cache line.
                // SAFETY: block is being freed; we own it now.
                unsafe {
                    Self::write_next(seg, page, block_size, block as u16, d.free_head);
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
            None => {
                // SAFETY: large blocks are standalone mappings made in
                // `allocate` for this same layout.
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

impl Drop for AggregatedHeap {
    fn drop(&mut self) {
        let mut cur = self.segments;
        while !cur.is_null() {
            let seg = SegmentRef::from_raw(cur);
            // SAFETY: dropping the whole list; no further use.
            let next = unsafe { seg.header().next_segment };
            // SAFETY: as above.
            unsafe { seg.destroy() };
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn roundtrip_and_reuse() {
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
    fn free_list_chain_survives_many_pushes() {
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
    fn no_overlap_across_classes() {
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
    fn stats_mirror_segmented_variant() {
        let mut h = AggregatedHeap::new(2);
        let p = h.allocate(layout(100)).unwrap();
        assert_eq!(h.stats().live_blocks, 1);
        assert_eq!(h.stats().live_bytes, 112); // class for 100
                                               // SAFETY: live block.
        unsafe { h.deallocate(p, layout(100)) };
        assert_eq!(h.stats().live_bytes, 0);
    }

    #[test]
    fn large_path_matches() {
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
