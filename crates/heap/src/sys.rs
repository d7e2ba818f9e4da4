//! Raw memory mapping: the `mmap()` layer under every heap.
//!
//! The paper's §2.1 describes the two-level split: user-level allocators
//! grab whole pages from the kernel with `mmap()` and carve them up to
//! avoid per-`malloc` mode switches. This module is that bottom level.
//!
//! Two kinds of mapping leave here. Heap segments ([`map_segment`]) are
//! advised `MADV_HUGEPAGE`: a segment is touched densely and lives long,
//! so one 2 MiB fault replaces up to 512 4 KiB ones and the kernel
//! trip stays off whoever touches a block first. Large blocks
//! ([`map_large`]) are not: they are touched once and unmapped, and keep
//! the 4 KiB commit granularity.

use std::alloc::Layout;
use std::io;
use std::ptr::NonNull;
use std::time::Duration;

use crate::error::AllocError;

/// Maps a heap segment: `size` bytes aligned to `size`, backed by
/// transparent huge pages where the kernel offers them.
///
/// The advice is the only difference from [`Mapping::new_aligned`], and
/// its result is ignored on purpose: a kernel without THP, or with
/// `enabled=never`, leaves an ordinary 4 KiB-paged mapping that behaves
/// identically. This is the one place the tree asks for huge pages.
///
/// # Errors
///
/// As [`Mapping::new_aligned`].
pub fn map_segment(size: usize) -> Result<Mapping, AllocError> {
    let mapping = Mapping::new_aligned(size, size)?;
    // SAFETY: the range is the mapping just made; advice never changes
    // its contents or validity.
    unsafe {
        libc::madvise(
            mapping.ptr.as_ptr().cast(),
            mapping.len,
            libc::MADV_HUGEPAGE,
        )
    };
    Ok(mapping)
}

/// Kernel-side cost the calling thread has paid so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadUsage {
    /// Page faults served without I/O (`ru_minflt`).
    pub minor_faults: u64,
    /// CPU time spent in the kernel (`ru_stime`).
    pub system_time: Duration,
}

/// `getrusage(RUSAGE_THREAD)` for the calling thread: who paid for a
/// mapping's first touches, as a number.
pub fn thread_usage() -> ThreadUsage {
    let mut ru = libc::rusage::default();
    // SAFETY: `ru` is a valid out-parameter and RUSAGE_THREAD a valid
    // target; the call cannot fail with those.
    let rc = unsafe { libc::getrusage(libc::RUSAGE_THREAD, &mut ru) };
    debug_assert_eq!(rc, 0, "getrusage failed: {}", io::Error::last_os_error());
    ThreadUsage {
        minor_faults: ru.ru_minflt as u64,
        system_time: Duration::new(ru.ru_stime.tv_sec as u64, ru.ru_stime.tv_usec as u32 * 1000),
    }
}

/// Minor faults the calling thread has taken so far.
pub fn thread_minor_faults() -> u64 {
    thread_usage().minor_faults
}

/// Whether this kernel honours `MADV_HUGEPAGE` (THP `enabled` is
/// `always` or `madvise`). For tests and reports that state a fault
/// bound; the heap never reads it.
pub fn thp_available() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|s| s.contains("[always]") || s.contains("[madvise]"))
}

/// Maps a dedicated block for `layout`: the large-object path every heap
/// and adapter shares. Returns the block and its length, `layout.size()`
/// rounded up to whole OS pages. Never huge-page advised.
///
/// # Errors
///
/// As [`Mapping::new_aligned`].
pub fn map_large(layout: Layout) -> Result<(NonNull<u8>, usize), AllocError> {
    Mapping::new_aligned(round_to_os_page(layout.size()), layout.align()).map(Mapping::into_raw)
}

/// Unmaps a block made by [`map_large`]; returns the length released.
///
/// # Safety
///
/// `ptr` must come from `map_large(layout)` with this same `layout` and
/// must not have been unmapped since.
pub unsafe fn unmap_large(ptr: NonNull<u8>, layout: Layout) -> usize {
    let len = round_to_os_page(layout.size());
    // SAFETY: `map_large` made a mapping of exactly `len` bytes at `ptr`,
    // and the caller relinquishes it.
    drop(unsafe { Mapping::from_raw(ptr, len) });
    len
}

/// Rounds `n` up to a multiple of the OS page size.
pub fn round_to_os_page(n: usize) -> usize {
    let page = os_page_size();
    n.checked_add(page - 1)
        .map(|v| v & !(page - 1))
        .unwrap_or(usize::MAX & !(page - 1))
}

/// The operating system's page size in bytes.
pub fn os_page_size() -> usize {
    // SAFETY: sysconf with a valid name has no preconditions.
    let sz = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    if sz <= 0 {
        4096
    } else {
        sz as usize
    }
}

/// An owned anonymous private mapping, unmapped on drop.
#[derive(Debug)]
pub struct Mapping {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: a Mapping uniquely owns its address range; transferring that
// ownership to another thread is sound (munmap may be called from any
// thread).
unsafe impl Send for Mapping {}
// SAFETY: Mapping's API hands out the base pointer but all mutation happens
// through raw pointers governed by the caller; the struct itself is
// immutable after construction.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `len` bytes of zeroed anonymous memory (rounded up to whole OS
    /// pages).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the kernel refuses the mapping and
    /// [`AllocError::SizeOverflow`] for degenerate lengths.
    pub fn new(len: usize) -> Result<Self, AllocError> {
        if len == 0 {
            return Err(AllocError::ZeroSize);
        }
        let len = round_to_os_page(len);
        // SAFETY: anonymous private mapping with no fixed address; all
        // arguments are valid by construction.
        let p = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == libc::MAP_FAILED {
            return Err(AllocError::OutOfMemory);
        }
        let ptr = NonNull::new(p.cast::<u8>()).ok_or(AllocError::OutOfMemory)?;
        Ok(Mapping { ptr, len })
    }

    /// Maps `len` bytes whose base address is a multiple of `align`.
    ///
    /// Implemented by over-mapping `len + align` and trimming the head and
    /// tail, the standard trick for segment-aligned allocators (the
    /// alignment lets `free(ptr)` recover its segment with a mask).
    ///
    /// # Errors
    ///
    /// As [`Mapping::new`]; additionally [`AllocError::SizeOverflow`] if
    /// `align` is not a power of two or `len + align` overflows.
    pub fn new_aligned(len: usize, align: usize) -> Result<Self, AllocError> {
        if !align.is_power_of_two() {
            return Err(AllocError::SizeOverflow);
        }
        let page = os_page_size();
        if align <= page {
            return Mapping::new(len);
        }
        let len = round_to_os_page(len);
        let total = len.checked_add(align).ok_or(AllocError::SizeOverflow)?;
        // SAFETY: as in `new`.
        let p = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                total,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if p == libc::MAP_FAILED {
            return Err(AllocError::OutOfMemory);
        }
        let base = p as usize;
        let aligned = (base + align - 1) & !(align - 1);
        let head = aligned - base;
        let tail = total - head - len;
        if head > 0 {
            // SAFETY: `[base, base+head)` is part of the mapping we just
            // created and nothing points into it.
            unsafe { libc::munmap(p, head) };
        }
        if tail > 0 {
            // SAFETY: `[aligned+len, base+total)` likewise.
            unsafe { libc::munmap((aligned + len) as *mut libc::c_void, tail) };
        }
        let ptr =
            NonNull::new(aligned as *mut u8).expect("aligned address cannot be null for align>0");
        Ok(Mapping { ptr, len })
    }

    /// Base address of the mapping.
    pub fn as_ptr(&self) -> NonNull<u8> {
        self.ptr
    }

    /// Length in bytes (whole OS pages).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: zero-length mappings cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Releases ownership without unmapping; the caller becomes responsible
    /// for the range.
    pub fn into_raw(self) -> (NonNull<u8>, usize) {
        let out = (self.ptr, self.len);
        std::mem::forget(self);
        out
    }

    /// Reconstructs a mapping from [`Mapping::into_raw`] output.
    ///
    /// # Safety
    ///
    /// `(ptr, len)` must come from `into_raw` on a mapping that has not been
    /// reconstructed or unmapped since.
    pub unsafe fn from_raw(ptr: NonNull<u8>, len: usize) -> Self {
        Mapping { ptr, len }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: we own `[ptr, ptr+len)`, mapped by mmap and never unmapped.
        let rc = unsafe { libc::munmap(self.ptr.as_ptr().cast(), self.len) };
        debug_assert_eq!(rc, 0, "munmap failed: {}", io::Error::last_os_error());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_zeroed_and_writable() {
        let m = Mapping::new(8192).unwrap();
        let p = m.as_ptr().as_ptr();
        // SAFETY: we own the fresh mapping of >= 8192 bytes.
        unsafe {
            assert_eq!(*p, 0);
            assert_eq!(*p.add(8191), 0);
            *p = 0xAB;
            *p.add(8191) = 0xCD;
            assert_eq!(*p, 0xAB);
            assert_eq!(*p.add(8191), 0xCD);
        }
    }

    #[test]
    fn length_rounds_to_os_pages() {
        let m = Mapping::new(1).unwrap();
        assert_eq!(m.len() % os_page_size(), 0);
        assert!(m.len() >= os_page_size());
    }

    #[test]
    fn aligned_mapping_is_aligned() {
        let align = 4 * 1024 * 1024;
        let m = Mapping::new_aligned(align, align).unwrap();
        assert_eq!(m.as_ptr().as_ptr() as usize % align, 0);
        assert_eq!(m.len(), align);
        // Whole range usable.
        // SAFETY: fresh mapping of `align` bytes.
        unsafe {
            *m.as_ptr().as_ptr() = 1;
            *m.as_ptr().as_ptr().add(align - 1) = 2;
        }
    }

    #[test]
    fn zero_len_rejected() {
        assert_eq!(Mapping::new(0).unwrap_err(), AllocError::ZeroSize);
    }

    #[test]
    fn non_pow2_align_rejected() {
        assert_eq!(
            Mapping::new_aligned(4096, 3 * 4096).unwrap_err(),
            AllocError::SizeOverflow
        );
    }

    #[test]
    fn raw_roundtrip_does_not_double_free() {
        let m = Mapping::new(4096).unwrap();
        let (p, l) = m.into_raw();
        // SAFETY: fresh from into_raw.
        let m2 = unsafe { Mapping::from_raw(p, l) };
        drop(m2);
    }

    #[test]
    fn large_pair_honours_size_and_alignment() {
        let page = os_page_size();
        for (size, align) in [(page + 1, 8), (3 * page, 4 * page), (64, 2 * page)] {
            let layout = Layout::from_size_align(size, align).unwrap();
            let (p, len) = map_large(layout).unwrap();
            assert_eq!(len, round_to_os_page(size));
            assert_eq!(p.as_ptr() as usize % align, 0);
            // SAFETY: fresh mapping of `len >= size` bytes, unmapped once
            // with the layout that made it.
            unsafe {
                *p.as_ptr().add(size - 1) = 7;
                assert_eq!(unmap_large(p, layout), len);
            }
        }
    }

    #[test]
    fn round_to_os_page_saturates() {
        assert_eq!(round_to_os_page(1), os_page_size());
        assert_eq!(round_to_os_page(os_page_size()), os_page_size());
        // Near-usize::MAX should not panic.
        let _ = round_to_os_page(usize::MAX - 1);
    }
}
