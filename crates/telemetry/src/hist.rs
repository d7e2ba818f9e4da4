//! Lock-free log-linear latency histograms.
//!
//! Bucketing follows the HDR-histogram family: each power-of-two octave is
//! split into `SUB = 16` linear sub-buckets, giving ≤ 6.25% relative
//! error everywhere while covering the full `u64` range in
//! [`N_BUCKETS`] = 976 buckets. Values below 16 get exact unit buckets.
//!
//! Recording touches exactly two relaxed atomics — one bucket increment
//! and one running-sum increment, each a locked add, since any thread
//! may record. Everything else (count, percentiles, merge) is derived at
//! snapshot time. A client records before it makes the store that hands
//! work to the other core, so these adds never wait for that store to
//! leave the store buffer (see DESIGN.md, "Telemetry measures, it does
//! not participate").

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
///
/// Indices `0..16` are exact unit buckets; octaves `2^4 ..= 2^63`
/// contribute 16 buckets each: `16 + 60 * 16 = 976`.
pub const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Maps a value to its bucket index.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS here
    let sub = ((value >> (exp - SUB_BITS)) as usize) & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Inclusive `[lower, upper]` value range of a bucket.
///
/// # Panics
///
/// Panics if `index >= N_BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < N_BUCKETS, "bucket index {index} out of range");
    if index < SUB {
        return (index as u64, index as u64);
    }
    let exp = SUB_BITS + (index / SUB) as u32 - 1;
    let sub = (index % SUB) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lower = (1u64 << exp) | (sub * width);
    (lower, lower + (width - 1))
}

/// A concurrent latency histogram.
///
/// Any number of threads may [`record`](Self::record) concurrently;
/// [`snapshot`](Self::snapshot) may race with recording and sees some
/// consistent-enough interleaving (counts are monotone, never torn).
pub struct LatencyHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    /// Running sum of recorded values, for the mean.
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LatencyHistogram {
            buckets: [ZERO; N_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value: one relaxed bucket increment plus one relaxed
    /// sum increment.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current state into an owned, mergeable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; N_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count())
            .field("p50", &snap.percentile(50.0))
            .field("max", &snap.max())
            .finish_non_exhaustive()
    }
}

/// An owned copy of a histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; N_BUCKETS],
            sum: 0,
        }
    }

    /// Total number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, or 0 for an empty snapshot.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket holding the `p`-th percentile
    /// (`0.0 ..= 100.0`), or 0 for an empty snapshot.
    ///
    /// Resolution is the bucket width: ≤ 6.25% relative error.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the target value, 1-based; ceil so p=0 maps to rank 1.
        let rank = ((p / 100.0 * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(i).1;
            }
        }
        self.max()
    }

    /// Median (bucket-resolution).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile (bucket-resolution).
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile (bucket-resolution).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Upper bound of the highest non-empty bucket, or 0 when empty.
    ///
    /// Bucket-resolution: the true maximum lies within this bucket.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| bucket_bounds(i).1)
    }

    /// The occupied buckets as `(lower, upper, count)` triples, in
    /// value order. This is the exporter's view: 976 mostly-empty
    /// buckets compress to the handful that actually saw samples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Folds `other` into `self`. Merging is commutative and associative.
    /// Sums wrap on overflow, matching the wrapping `fetch_add` in
    /// [`LatencyHistogram::record`].
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.wrapping_add(*src);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut expected_lower = 0u64;
        for i in 0..N_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lower, "gap before bucket {i}");
            assert!(hi >= lo);
            expected_lower = hi.wrapping_add(1);
        }
        // The last bucket ends exactly at u64::MAX.
        assert_eq!(bucket_bounds(N_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn index_respects_bounds() {
        for &v in &[0, 1, 15, 16, 17, 31, 32, 33, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn relative_error_bounded() {
        for &v in &[100u64, 12_345, 1 << 30, (1 << 40) + 17] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = hi - lo;
            assert!(
                (width as f64) <= lo as f64 / 16.0 + 1.0,
                "bucket too wide at {v}: [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        // p50 is the bucket holding value 50: [48,51].
        let p50 = s.p50();
        assert!((48..=51).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((96..=103).contains(&p99), "p99 = {p99}");
        assert!(s.max() >= 100);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let c = LatencyHistogram::new();
        for v in [3u64, 17, 900, 70_000] {
            a.record(v);
            c.record(v);
        }
        for v in [5u64, 17, 1 << 33] {
            b.record(v);
            c.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, c.snapshot());
    }

    #[test]
    fn nonzero_buckets_cover_exactly_the_recorded_values() {
        let h = LatencyHistogram::new();
        for v in [3u64, 3, 900, 70_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let buckets: Vec<_> = s.nonzero_buckets().collect();
        assert_eq!(buckets.len(), 3, "three distinct buckets: {buckets:?}");
        assert_eq!(buckets[0], (3, 3, 2), "unit bucket holds both 3s");
        let total: u64 = buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, s.count());
        for &(lo, hi, _) in &buckets {
            assert!(lo <= hi);
        }
        assert!(
            HistogramSnapshot::empty()
                .nonzero_buckets()
                .next()
                .is_none(),
            "empty snapshot has no occupied buckets"
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 97));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
