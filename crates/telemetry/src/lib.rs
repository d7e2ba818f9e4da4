//! Telemetry layer for the offloaded allocator runtime.
//!
//! The paper's argument is quantitative: offloading pays off only when the
//! round-trip to the service core (`T_comm`, §4.1) undercuts the cache
//! misses it avoids. Validating that model needs measurement machinery
//! whose own overhead does not distort the quantity being measured. This
//! crate provides these pieces, all dependency-free:
//!
//! * [`hist::LatencyHistogram`] — a lock-free log-linear histogram.
//!   Recording is one relaxed bucket increment plus one relaxed sum
//!   increment; percentiles are computed at snapshot time, off the hot
//!   path.
//! * [`trace::TraceRing`] — a bounded per-thread event ring for
//!   alloc/free/post/refill/wait-transition events (and, in a tier's
//!   control ring, failure edges). Overflow drops
//!   the oldest event and counts the drop; nothing is lost silently, and
//!   the storage never grows.
//! * [`export::MetricsSnapshot`] — a named bag of counters, gauges
//!   (plain and labeled), and histogram snapshots renderable as
//!   Prometheus text exposition or a JSON document.
//! * [`span`] — request-lifecycle spans: phase codes, alias-free span
//!   ids minted from the slot publish sequence, and reconstruction of
//!   spans from drained trace rings.
//! * [`server::HttpServer`] — a minimal HTTP/1.0 server for live
//!   observability endpoints (`/metrics`, `/readyz`, ...).
//! * [`recorder::FlightRecorder`] — a continuous JSONL recorder that
//!   appends cumulative tier state at a fixed interval with bounded
//!   size-based rotation: the tier's one time series.
//!
//! Timestamps come from [`clock::cycles_now`]: `rdtsc` on x86_64, a
//! monotonic-nanosecond fallback elsewhere (see that module for
//! caveats); [`clock::cycles_per_ns`] calibrates a cycles→ns conversion
//! once per process.

pub mod clock;
pub mod export;
pub mod hist;
pub mod recorder;
pub mod server;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
///
/// All operations are relaxed; counters are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time sampled value (ring occupancy, wait phase, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrites the sample.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Last sample.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_overwrites() {
        let g = Gauge::new();
        g.set(7);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }
}
