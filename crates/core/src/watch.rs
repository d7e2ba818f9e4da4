//! Live heap-statistics publication.
//!
//! The segregated heap is owned exclusively by the service thread — the
//! whole point of the design is that its metadata needs no atomics. That
//! makes its [`HeapStats`] invisible to other threads until shutdown. The
//! service fixes that by *publishing*: during idle rounds it copies its
//! stats into a [`SharedHeapStats`] — a relaxed-atomic mirror other
//! threads may read at any time. Publication costs a handful of relaxed
//! stores and runs only when no client is waiting, so the measurement
//! never perturbs the quantity measured.

use std::sync::atomic::{AtomicU64, Ordering};

use ngm_heap::HeapStats;

/// A cross-thread readable mirror of [`HeapStats`].
///
/// Readers see a near-current view: fields are stored individually with
/// relaxed ordering, so a snapshot may mix two adjacent publications.
/// For gauges sampled for telemetry that tear is harmless; anything
/// needing exactness should use the final stats returned at shutdown.
#[derive(Debug, Default)]
pub struct SharedHeapStats {
    live_blocks: AtomicU64,
    live_bytes: AtomicU64,
    segments: AtomicU64,
    pages_in_use: AtomicU64,
    large_allocs: AtomicU64,
    large_bytes: AtomicU64,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
    peak_live_bytes: AtomicU64,
}

impl SharedHeapStats {
    /// An all-zero mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `stats` (service thread only).
    pub fn publish(&self, stats: &HeapStats) {
        self.live_blocks.store(stats.live_blocks, Ordering::Relaxed);
        self.live_bytes.store(stats.live_bytes, Ordering::Relaxed);
        self.segments.store(stats.segments, Ordering::Relaxed);
        self.pages_in_use
            .store(stats.pages_in_use, Ordering::Relaxed);
        self.large_allocs
            .store(stats.large_allocs, Ordering::Relaxed);
        self.large_bytes.store(stats.large_bytes, Ordering::Relaxed);
        self.total_allocs
            .store(stats.total_allocs, Ordering::Relaxed);
        self.total_frees.store(stats.total_frees, Ordering::Relaxed);
        self.peak_live_bytes
            .store(stats.peak_live_bytes, Ordering::Relaxed);
    }

    /// Reads the last published view.
    #[must_use]
    pub fn load(&self) -> HeapStats {
        HeapStats {
            live_blocks: self.live_blocks.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            segments: self.segments.load(Ordering::Relaxed),
            pages_in_use: self.pages_in_use.load(Ordering::Relaxed),
            large_allocs: self.large_allocs.load(Ordering::Relaxed),
            large_bytes: self.large_bytes.load(Ordering::Relaxed),
            total_allocs: self.total_allocs.load(Ordering::Relaxed),
            total_frees: self.total_frees.load(Ordering::Relaxed),
            peak_live_bytes: self.peak_live_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_load_roundtrip() {
        let w = SharedHeapStats::new();
        let s = HeapStats {
            live_blocks: 3,
            live_bytes: 192,
            segments: 1,
            pages_in_use: 2,
            large_allocs: 1,
            large_bytes: 1 << 20,
            total_allocs: 10,
            total_frees: 6,
            peak_live_bytes: 4096,
        };
        w.publish(&s);
        assert_eq!(w.load(), s);
    }

    #[test]
    fn fresh_watch_reads_zero() {
        assert_eq!(SharedHeapStats::new().load(), HeapStats::default());
    }
}
