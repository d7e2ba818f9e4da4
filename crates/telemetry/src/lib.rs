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
