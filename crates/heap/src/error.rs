//! Allocation error type.

use std::fmt;

/// Why an allocation request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The operating system refused to map more memory.
    OutOfMemory,
    /// The requested size or alignment overflows internal arithmetic.
    SizeOverflow,
    /// Zero-sized allocations are not served by these heaps; callers
    /// (e.g. the `GlobalAlloc` adapter) handle them with dangling pointers.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "out of memory"),
            AllocError::SizeOverflow => write!(f, "size or alignment overflow"),
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(AllocError::OutOfMemory.to_string(), "out of memory");
        assert!(AllocError::SizeOverflow.to_string().contains("overflow"));
        assert!(AllocError::ZeroSize.to_string().contains("ero-sized"));
    }
}
