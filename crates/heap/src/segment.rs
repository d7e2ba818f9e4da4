//! Segments: 2 MiB aligned regions carved into 64 KiB pages, with all
//! metadata self-hosted in a reserved region at the segment's start.
//!
//! This is the paper's *segregated layout* (Figure 2) made concrete: page
//! descriptors and the per-page free lists — stored as 16-bit block
//! indices, not 8-byte in-block pointers — live in a metadata area whose
//! cache lines are never shared with user blocks. A heap that runs on a
//! dedicated core therefore keeps every metadata line private to that core.
//! Only pages that hold blocks get a free-list array: 4 of the 32 pages
//! hold the metadata, and the other 28 hold blocks.
//!
//! Address arithmetic relies on the 2 MiB alignment: `ptr & !(SEGMENT_SIZE
//! - 1)` recovers the segment header from any interior pointer, which is
//! how `free(ptr)` finds its bookkeeping without touching the block.
//!
//! It also makes a segment exactly one aligned huge page, and the mapping
//! is advised so ([`crate::sys::map_segment`]): a fully used segment
//! costs one fault instead of 512, and it is taken by the heap's owner
//! when [`SegmentRef::create`] writes the header, never by whoever is
//! handed a block. Where the advice is honoured, the segments a heap has
//! committed are exactly what it holds resident. The price is the
//! resident floor: a heap with one live block holds 2 MiB resident, not
//! a few 4 KiB pages.

use std::ptr::NonNull;
use std::sync::atomic::AtomicPtr;

use crate::error::AllocError;
use crate::sys::{map_segment, Mapping};

/// What the kernel backs an advised segment with (2 MiB on x86-64 and
/// aarch64 with 4 KiB base pages).
const HUGE_PAGE: usize = 2 * 1024 * 1024;

/// Segment size and alignment: one huge page.
pub const SEGMENT_SIZE: usize = HUGE_PAGE;

/// Allocator page size (64 KiB) — the "UMA page" of §2.1, deliberately
/// larger than the OS page.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Pages per segment.
pub const PAGES_PER_SEGMENT: usize = SEGMENT_SIZE / PAGE_SIZE;

/// Maximum blocks in a page (minimum block size 16).
pub const MAX_BLOCKS: usize = PAGE_SIZE / 16;

/// Sentinel for "no block" in 16-bit free lists.
pub const NO_BLOCK: u16 = u16::MAX;

/// Sentinel for "no class assigned" in page descriptors.
pub const NO_CLASS: u16 = u16::MAX;

const MAGIC: u64 = 0x4e47_4d5f_5345_4721; // "NGM_SEG!"

/// Byte offset of the page-descriptor array within a segment.
const DESC_OFFSET: usize = 4096;

/// Byte offset of the per-page 16-bit next-index arrays.
const INDEX_OFFSET: usize = DESC_OFFSET + PAGES_PER_SEGMENT * 64;

/// Bytes of one page's next-index array.
const INDEX_BYTES: usize = MAX_BLOCKS * 2;

/// Index of the first page usable for blocks: the fewest pages `n` that
/// hold the header, every descriptor and one index array for each of the
/// `PAGES_PER_SEGMENT - n` pages above them.
pub const FIRST_PAGE: usize =
    (INDEX_OFFSET + PAGES_PER_SEGMENT * INDEX_BYTES).div_ceil(PAGE_SIZE + INDEX_BYTES);

/// Usable pages per segment.
pub const USABLE_PAGES: usize = PAGES_PER_SEGMENT - FIRST_PAGE;

/// Header at the base of every segment.
#[repr(C)]
pub struct SegmentHeader {
    magic: u64,
    /// Identifier of the owning heap (diagnostics / sharded routing).
    pub owner_id: u64,
    /// Intrusive list of the owning heap's segments.
    pub next_segment: *mut SegmentHeader,
    /// Context pointer the owning heap may install (e.g. the sharded
    /// heap's remote-free queue). Null for single-owner heaps.
    pub owner_ctx: AtomicPtr<u8>,
    /// Number of pages handed out and not yet returned.
    pub pages_in_use: u16,
    /// Next never-used page (bump allocation of pages).
    next_unused_page: u16,
    /// Stack of returned page indices.
    free_page_top: u16,
    free_page_stack: [u16; PAGES_PER_SEGMENT],
}

/// Descriptor for one 64 KiB page. Kept to 64 bytes so the descriptor
/// array stays dense.
#[repr(C)]
pub struct PageDesc {
    /// Size class this page currently serves, or [`NO_CLASS`].
    pub class: u16,
    /// Block size in bytes (copied from the class table).
    pub block_size: u32,
    /// Total blocks this page holds at its block size.
    pub nblocks: u16,
    /// Live (allocated) blocks.
    pub used: u16,
    /// Next never-allocated block index (lazy free-list initialization).
    pub bump: u16,
    /// Head of the page-local free list ([`NO_BLOCK`] if empty).
    pub free_head: u16,
    /// This page's index within its segment.
    pub page_index: u16,
    /// Whether the page is currently linked into a heap bin.
    pub in_bin: bool,
    /// Next page in the heap's bin list (intrusive).
    pub next_in_bin: *mut PageDesc,
}

const _: () = assert!(std::mem::size_of::<PageDesc>() <= 64);
const _: () = assert!(std::mem::size_of::<SegmentHeader>() <= DESC_OFFSET);
const _: () = assert!(FIRST_PAGE < PAGES_PER_SEGMENT);
const _: () = assert!(INDEX_OFFSET + USABLE_PAGES * INDEX_BYTES <= FIRST_PAGE * PAGE_SIZE);
// `create`'s header write faults in the whole segment on the heap's
// owner, so no user of a block ever takes a fault on it.
const _: () = assert!(SEGMENT_SIZE == HUGE_PAGE);

impl PageDesc {
    /// Whether every block is free.
    pub fn is_unused(&self) -> bool {
        self.used == 0
    }

    /// Whether allocation from this page can succeed.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.free_head != NO_BLOCK || self.bump < self.nblocks
    }
}

/// A non-owning, copyable reference to a segment.
///
/// All accessor methods are `unsafe` free functions over raw pointers in
/// spirit; they are grouped here behind `unsafe fn`s whose contract is that
/// the segment is alive (mapped, initialized by [`SegmentRef::create`], not
/// yet destroyed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef(NonNull<SegmentHeader>);

impl SegmentRef {
    /// Maps and initializes a fresh segment.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures from the OS.
    pub fn create(owner_id: u64) -> Result<Self, AllocError> {
        let (base, _len) = map_segment(SEGMENT_SIZE)?.into_raw();
        let hdr = base.as_ptr().cast::<SegmentHeader>();
        // SAFETY: `base` points to SEGMENT_SIZE zeroed writable bytes with
        // suitable alignment; we initialize the header in place. This
        // write is the fault that brings in the whole huge page.
        unsafe {
            hdr.write(SegmentHeader {
                magic: MAGIC,
                owner_id,
                next_segment: std::ptr::null_mut(),
                owner_ctx: AtomicPtr::new(std::ptr::null_mut()),
                pages_in_use: 0,
                next_unused_page: FIRST_PAGE as u16,
                free_page_top: 0,
                free_page_stack: [0; PAGES_PER_SEGMENT],
            });
        }
        let seg = SegmentRef(NonNull::new(hdr).expect("mapping base is non-null"));
        // Initialize descriptors.
        for i in 0..PAGES_PER_SEGMENT {
            // SAFETY: descriptor slots lie inside the zeroed metadata area.
            unsafe {
                seg.desc_ptr(i).write(PageDesc {
                    class: NO_CLASS,
                    block_size: 0,
                    nblocks: 0,
                    used: 0,
                    bump: 0,
                    free_head: NO_BLOCK,
                    page_index: i as u16,
                    in_bin: false,
                    next_in_bin: std::ptr::null_mut(),
                });
            }
        }
        Ok(seg)
    }

    /// Unmaps the segment.
    ///
    /// # Safety
    ///
    /// No pointers into the segment (blocks, descriptors) may be used
    /// afterwards, and `self` must not be used again.
    pub unsafe fn destroy(self) {
        let base = NonNull::new(self.0.as_ptr().cast::<u8>()).expect("segment base non-null");
        // SAFETY: created via map_segment(SEGMENT_SIZE) and
        // ownership was transferred to this SegmentRef at creation.
        drop(unsafe { Mapping::from_raw(base, SEGMENT_SIZE) });
    }

    /// Recovers the segment containing `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must point into a live segment created by [`SegmentRef::create`].
    #[inline]
    pub unsafe fn of_ptr(ptr: NonNull<u8>) -> Self {
        let base = (ptr.as_ptr() as usize) & !(SEGMENT_SIZE - 1);
        let hdr = base as *mut SegmentHeader;
        // SAFETY: caller guarantees `ptr` is interior to a live segment, so
        // `base` is its mapped, initialized header.
        debug_assert_eq!(unsafe { (*hdr).magic }, MAGIC, "bad segment magic");
        SegmentRef(NonNull::new(hdr).expect("masked base non-null for interior pointer"))
    }

    /// The segment's base address.
    pub fn base(self) -> NonNull<u8> {
        self.0.cast()
    }

    /// Wraps a raw header pointer (e.g. from an intrusive segment list).
    ///
    /// # Panics
    ///
    /// Panics if `p` is null.
    pub(crate) fn from_raw(p: *mut SegmentHeader) -> Self {
        SegmentRef(NonNull::new(p).expect("segment pointer must be non-null"))
    }

    /// The header, mutably.
    ///
    /// # Safety
    ///
    /// Segment must be alive; caller must hold exclusive access to header
    /// fields it mutates (single-owner heaps get this structurally).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn header<'a>(self) -> &'a mut SegmentHeader {
        // SAFETY: live segment per contract.
        unsafe { &mut *self.0.as_ptr() }
    }

    #[inline]
    fn desc_ptr(self, page: usize) -> *mut PageDesc {
        debug_assert!(page < PAGES_PER_SEGMENT);
        // Descriptor array begins DESC_OFFSET bytes into the segment.
        let base = self.0.as_ptr() as usize + DESC_OFFSET;
        (base + page * 64) as *mut PageDesc
    }

    /// The descriptor of page `page`, mutably.
    ///
    /// # Safety
    ///
    /// Segment must be alive and the caller must have exclusive access to
    /// this page's metadata.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn desc<'a>(self, page: usize) -> &'a mut PageDesc {
        // SAFETY: in-bounds descriptor in a live segment per contract.
        unsafe { &mut *self.desc_ptr(page) }
    }

    /// Base address of page `page`'s data area.
    #[inline]
    pub fn page_base(self, page: usize) -> NonNull<u8> {
        debug_assert!((FIRST_PAGE..PAGES_PER_SEGMENT).contains(&page));
        let addr = self.0.as_ptr() as usize + page * PAGE_SIZE;
        NonNull::new(addr as *mut u8).expect("page base non-null")
    }

    /// The 16-bit next-index array for page `page` (the segregated free
    /// list storage). Only block pages have one: the arrays start with
    /// page [`FIRST_PAGE`]'s.
    ///
    /// # Safety
    ///
    /// Segment must be alive; caller must have exclusive access to this
    /// page's metadata.
    #[inline]
    pub unsafe fn index_array(self, page: usize) -> *mut u16 {
        debug_assert!((FIRST_PAGE..PAGES_PER_SEGMENT).contains(&page));
        let base = self.0.as_ptr() as usize + INDEX_OFFSET;
        (base + (page - FIRST_PAGE) * INDEX_BYTES) as *mut u16
    }

    /// Pops a fresh page index, if any remain.
    ///
    /// # Safety
    ///
    /// Exclusive access to the segment header.
    pub unsafe fn alloc_page(self) -> Option<usize> {
        // SAFETY: per contract.
        let hdr = unsafe { self.header() };
        let idx = if hdr.free_page_top > 0 {
            hdr.free_page_top -= 1;
            hdr.free_page_stack[hdr.free_page_top as usize] as usize
        } else if (hdr.next_unused_page as usize) < PAGES_PER_SEGMENT {
            let i = hdr.next_unused_page as usize;
            hdr.next_unused_page += 1;
            i
        } else {
            return None;
        };
        hdr.pages_in_use += 1;
        Some(idx)
    }

    /// Returns page `page` to the segment's free stack, resetting its
    /// descriptor.
    ///
    /// # Safety
    ///
    /// Exclusive access; the page must have no live blocks and must not be
    /// linked in any bin.
    pub unsafe fn free_page(self, page: usize) {
        // SAFETY: per contract.
        let d = unsafe { self.desc(page) };
        debug_assert_eq!(d.used, 0);
        debug_assert!(!d.in_bin);
        d.class = NO_CLASS;
        d.block_size = 0;
        d.nblocks = 0;
        d.bump = 0;
        d.free_head = NO_BLOCK;
        d.next_in_bin = std::ptr::null_mut();
        // SAFETY: per contract.
        let hdr = unsafe { self.header() };
        hdr.free_page_stack[hdr.free_page_top as usize] = page as u16;
        hdr.free_page_top += 1;
        hdr.pages_in_use -= 1;
    }

    /// Computes `(page index, block index)` for an interior pointer, given
    /// the page's block size from its descriptor.
    ///
    /// # Safety
    ///
    /// `ptr` must point to the start of a block inside this segment.
    #[inline]
    pub unsafe fn locate(self, ptr: NonNull<u8>) -> (usize, usize) {
        let off = ptr.as_ptr() as usize - self.0.as_ptr() as usize;
        let page = off / PAGE_SIZE;
        debug_assert!((FIRST_PAGE..PAGES_PER_SEGMENT).contains(&page));
        // SAFETY: page in range, segment alive per contract.
        let d = unsafe { self.desc(page) };
        debug_assert!(d.block_size > 0, "pointer into unassigned page");
        let block = (off - page * PAGE_SIZE) / d.block_size as usize;
        (page, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // the constants ARE the test
    fn geometry_constants_consistent() {
        assert_eq!(SEGMENT_SIZE, HUGE_PAGE);
        assert_eq!(PAGES_PER_SEGMENT, 32);
        assert_eq!(MAX_BLOCKS, 4096);
        assert_eq!(FIRST_PAGE, 4);
        assert_eq!(USABLE_PAGES, 28);
        // Block pages' arrays start right after the descriptors, and the
        // last one ends below the first block page.
        let seg = SegmentRef::create(0).unwrap();
        let base = seg.base().as_ptr() as usize;
        // SAFETY: live segment; only addresses are taken.
        let (first, last) = unsafe {
            (
                seg.index_array(FIRST_PAGE) as usize - base,
                seg.index_array(PAGES_PER_SEGMENT - 1) as usize - base,
            )
        };
        assert_eq!(first, INDEX_OFFSET);
        assert!(last + INDEX_BYTES <= FIRST_PAGE * PAGE_SIZE);
        // One fewer metadata page would not hold the arrays it owes.
        assert!(INDEX_OFFSET + (USABLE_PAGES + 1) * INDEX_BYTES > (FIRST_PAGE - 1) * PAGE_SIZE);
        // SAFETY: done with all pointers.
        unsafe { seg.destroy() };
    }

    #[test]
    fn create_and_destroy() {
        let seg = SegmentRef::create(7).unwrap();
        // SAFETY: fresh segment, single thread.
        unsafe {
            assert_eq!(seg.header().owner_id, 7);
            assert_eq!(seg.header().pages_in_use, 0);
            seg.destroy();
        }
    }

    #[test]
    fn segment_base_is_aligned() {
        let seg = SegmentRef::create(0).unwrap();
        assert_eq!(seg.base().as_ptr() as usize % SEGMENT_SIZE, 0);
        // SAFETY: no outstanding pointers.
        unsafe { seg.destroy() };
    }

    #[test]
    fn of_ptr_recovers_segment() {
        let seg = SegmentRef::create(0).unwrap();
        let p = seg.page_base(FIRST_PAGE);
        // SAFETY: p is interior to the live segment.
        let found = unsafe { SegmentRef::of_ptr(p) };
        assert_eq!(found, seg);
        // An address deep inside also works.
        let q = NonNull::new(unsafe { p.as_ptr().add(12345) }).unwrap();
        // SAFETY: q still interior.
        assert_eq!(unsafe { SegmentRef::of_ptr(q) }, seg);
        // SAFETY: done with all pointers.
        unsafe { seg.destroy() };
    }

    #[test]
    fn page_allocation_bumps_then_recycles() {
        let seg = SegmentRef::create(0).unwrap();
        // SAFETY: exclusive access throughout.
        unsafe {
            let a = seg.alloc_page().unwrap();
            let b = seg.alloc_page().unwrap();
            assert_eq!(a, FIRST_PAGE);
            assert_eq!(b, FIRST_PAGE + 1);
            assert_eq!(seg.header().pages_in_use, 2);
            seg.free_page(a);
            assert_eq!(seg.header().pages_in_use, 1);
            let c = seg.alloc_page().unwrap();
            assert_eq!(c, a, "freed page is reused first");
            seg.destroy();
        }
    }

    #[test]
    fn page_exhaustion_returns_none() {
        let seg = SegmentRef::create(0).unwrap();
        // SAFETY: exclusive access.
        unsafe {
            for _ in 0..USABLE_PAGES {
                assert!(seg.alloc_page().is_some());
            }
            assert!(seg.alloc_page().is_none());
            seg.destroy();
        }
    }

    #[test]
    fn locate_maps_blocks_back() {
        let seg = SegmentRef::create(0).unwrap();
        // SAFETY: exclusive access.
        unsafe {
            let page = seg.alloc_page().unwrap();
            let d = seg.desc(page);
            d.class = 3;
            d.block_size = 64;
            d.nblocks = (PAGE_SIZE / 64) as u16;
            let base = seg.page_base(page);
            for blk in [0usize, 1, 17, 1023] {
                let p = NonNull::new(base.as_ptr().add(blk * 64)).unwrap();
                assert_eq!(seg.locate(p), (page, blk));
            }
            seg.destroy();
        }
    }

    #[test]
    fn descriptors_live_below_first_page() {
        let seg = SegmentRef::create(0).unwrap();
        let desc_addr = seg.desc_ptr(PAGES_PER_SEGMENT - 1) as usize;
        let first_data = seg.base().as_ptr() as usize + FIRST_PAGE * PAGE_SIZE;
        assert!(desc_addr + 64 <= first_data);
        // SAFETY: done.
        unsafe { seg.destroy() };
    }

    #[test]
    fn index_arrays_live_below_first_page() {
        let seg = SegmentRef::create(0).unwrap();
        // SAFETY: live segment.
        let arr = unsafe { seg.index_array(PAGES_PER_SEGMENT - 1) } as usize;
        let first_data = seg.base().as_ptr() as usize + FIRST_PAGE * PAGE_SIZE;
        assert!(arr + INDEX_BYTES <= first_data);
        // SAFETY: done.
        unsafe { seg.destroy() };
    }
}
