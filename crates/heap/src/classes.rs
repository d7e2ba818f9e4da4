//! Size classes.
//!
//! Like TCMalloc and Mimalloc, small requests are rounded up to one of a
//! fixed set of block sizes — note, as the paper's Figure 2 caption does,
//! that "the block size is not necessarily a power of 2". Four classes per
//! doubling keeps worst-case internal fragmentation under 25 %.
//!
//! The table ends at 16 KiB, a quarter of a 64 KiB segment page, so the
//! largest classes still pack four to six blocks a page and a medium
//! block (the xalanc trace's 8–10 KB output strings) is handed out and
//! taken back like a 64-byte one instead of costing an `mmap`/`munmap`
//! pair and its TLB shootdown on the calling thread. It stops there on
//! purpose: a 32 KiB doubling would pack two blocks a page and leave up
//! to a quarter of the page unused at its tail (2 × 24,576 of 65,536),
//! and no trace in the tree allocates between 16 and 32 KiB. Everything
//! above [`SMALL_MAX`] is a dedicated mapping, with no cache of
//! mappings in front of it — a wider table serves the same blocks
//! without a second mechanism to keep exact.

/// Largest size served from size-class pages; bigger requests go to
/// dedicated mappings.
pub const SMALL_MAX: usize = 16384;

/// Block sizes, smallest to largest: 16-byte steps up to 128, then four
/// classes per doubling. All are multiples of 16, so any block is at
/// least 16-byte aligned.
pub const CLASS_SIZES: [usize; 36] = [
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192, 10240, 12288, 14336,
    16384,
];

/// Number of size classes.
pub const NUM_CLASSES: usize = CLASS_SIZES.len();

/// A size-class index, `0..NUM_CLASSES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeClass(pub u16);

/// Returns the block size of class `c`.
///
/// # Panics
///
/// Panics if `c` is out of range.
#[inline]
pub fn class_to_size(c: SizeClass) -> usize {
    CLASS_SIZES[c.0 as usize]
}

/// Maps a request of `size` bytes to the smallest class that fits, or
/// `None` when the request must go to the large-allocation path.
///
/// Constant time — every alloc and free calls this — from the table's
/// shape: below 128 the class is the 16-byte step, above it the doubling
/// `size - 1` falls in (its highest set bit) picks a group of four and
/// the next two bits pick the class within it.
#[inline]
pub fn size_to_class(size: usize) -> Option<SizeClass> {
    if size > SMALL_MAX {
        return None;
    }
    let s = size.saturating_sub(1);
    let class = if s < 128 {
        s >> 4
    } else {
        let doubling = (usize::BITS - 1 - s.leading_zeros()) as usize;
        8 + 4 * (doubling - 7) + ((s >> (doubling - 2)) & 3)
    };
    Some(SizeClass(class as u16))
}

/// Maps an (size, align) pair to a class whose blocks satisfy the
/// alignment, or `None` for the large path.
///
/// Blocks of class `c` sit at offsets `i * class_to_size(c)` inside a
/// 64 KiB-aligned page, so a block is aligned to `align` exactly when its
/// class size is a multiple of it. Alignments ≤ 16 are always satisfied;
/// a larger one takes the smallest class that fits `size` and divides
/// evenly. Every doubling of the table holds a power of two, which any
/// smaller power of two divides, so the scan reads at most four entries.
#[inline]
pub fn layout_to_class(size: usize, align: usize) -> Option<SizeClass> {
    debug_assert!(align.is_power_of_two());
    if align <= 16 {
        return size_to_class(size);
    }
    // No block smaller than `align` is a multiple of it.
    let first = size_to_class(size.max(align))?.0 as usize;
    (first..NUM_CLASSES)
        .find(|&c| CLASS_SIZES[c] & (align - 1) == 0)
        .map(|c| SizeClass(c as u16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_multiples_of_16() {
        let mut prev = 0;
        for i in 0..NUM_CLASSES {
            let s = class_to_size(SizeClass(i as u16));
            assert!(s > prev, "classes must be strictly increasing");
            assert_eq!(s % 16, 0, "class {s} not a multiple of 16");
            prev = s;
        }
        assert_eq!(
            class_to_size(SizeClass((NUM_CLASSES - 1) as u16)),
            SMALL_MAX
        );
    }

    #[test]
    fn size_to_class_fits() {
        assert_eq!(size_to_class(0), Some(SizeClass(0)));
        for size in 1..=SMALL_MAX {
            let c = size_to_class(size).expect("small size must have a class");
            assert!(class_to_size(c) >= size);
            if c.0 > 0 {
                assert!(
                    class_to_size(SizeClass(c.0 - 1)) < size,
                    "class must be the smallest that fits"
                );
            }
        }
    }

    #[test]
    fn oversize_has_no_class() {
        assert_eq!(size_to_class(SMALL_MAX + 1), None);
    }

    #[test]
    fn internal_fragmentation_bounded() {
        for size in 64..=SMALL_MAX {
            let c = size_to_class(size).unwrap();
            let waste = class_to_size(c) - size;
            assert!(
                (waste as f64) < 0.26 * size as f64,
                "size {size}: waste {waste} exceeds 26 %"
            );
        }
        // Below 64 bytes the 16-byte class spacing bounds waste absolutely.
        for size in 1..64 {
            let c = size_to_class(size).unwrap();
            assert!(class_to_size(c) - size < 16);
        }
    }

    #[test]
    fn alignment_routing() {
        // Small alignments use the normal table (48 is not a power of two).
        assert_eq!(layout_to_class(48, 8), size_to_class(48));
        // An over-aligned request takes the smallest class that fits and
        // divides evenly — not the next power of two: 5,000 B / 32 fits
        // 5,120 and 9,000 B / 64 fits 10,240.
        assert_eq!(layout_to_class(5000, 32), size_to_class(5120));
        assert_eq!(layout_to_class(9000, 64), size_to_class(10240));
        assert_eq!(layout_to_class(48, 64), size_to_class(64));
        let mut align = 32;
        while align <= 2 * SMALL_MAX {
            for size in (1..=SMALL_MAX + 1).step_by(7) {
                let fitting = |c: &usize| *c >= size && *c & (align - 1) == 0;
                let want = CLASS_SIZES.iter().copied().find(fitting);
                let got = layout_to_class(size, align).map(class_to_size);
                assert_eq!(got, want, "size {size} align {align}");
            }
            align *= 2;
        }
        // No class is a multiple of an alignment above the largest one.
        assert_eq!(layout_to_class(64, 2 * SMALL_MAX), None);
        assert_eq!(layout_to_class(SMALL_MAX + 1, 64), None);
    }

    #[test]
    fn non_power_of_two_classes_exist() {
        // The paper highlights that block sizes need not be powers of two.
        assert!(CLASS_SIZES.iter().any(|s| !s.is_power_of_two()));
    }
}
