//! Simulated virtual address space.

/// A bump reservation of simulated virtual addresses (an `mmap` stand-in).
///
/// Addresses are purely symbolic — nothing is mapped — but they are what
/// the cache and TLB models index by, so *where* a policy places blocks is
/// exactly as consequential as on real hardware.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Creates a space whose first reservation lands at `base`.
    pub fn new(base: u64) -> Self {
        AddressSpace { next: base }
    }

    /// Reserves `size` bytes aligned to `align` (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn reserve(&mut self, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + size;
        base
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        // Leave low memory for per-model fixed regions (TLS areas, bin
        // arrays, communication slots).
        AddressSpace::new(0x1000_0000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_are_disjoint_and_aligned() {
        let mut s = AddressSpace::default();
        let a = s.reserve(100, 64);
        let b = s.reserve(4096, 4096);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_align_panics() {
        AddressSpace::default().reserve(8, 3);
    }
}
