//! Per-runtime telemetry: request-latency histograms, trace rings, and
//! the metrics snapshot assembly.
//!
//! One [`RuntimeTelemetry`] is shared (via `Arc`) between the service
//! loop and every [`crate::ClientHandle`]. A histogram record is two
//! locked adds (bucket and sum). The client records a round trip's
//! latency and two phases, six in all, and a post its enqueue latency;
//! the service records the serve phase on a histogram that only it
//! writes. Every clock read lies outside the window from the service's
//! claim to its response, so measurement adds nothing to the round trip
//! being measured (§4.1's `T_comm`).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::hist::LatencyHistogram;
use ngm_telemetry::trace::{TraceDrain, TraceRing};

use crate::stats::StatsSnapshot;

/// Number of round-trip phases tracked per call (see
/// [`RuntimeTelemetry::phase_cycles`]).
pub const PHASES: usize = 5;

/// Stable phase names, lifecycle order; index-aligned with
/// [`RuntimeTelemetry::phase_cycles`] and the exported
/// `ngm_phase_{name}_cycles` series.
pub const PHASE_NAMES: [&str; PHASES] = ["queue", "claim", "serve", "publish", "observe"];

/// [`PHASE_NAMES`] indices of the phases anything records.
const CLAIM: usize = 1;
const SERVE: usize = 2;
const OBSERVE: usize = 4;

/// Telemetry shared by one offload runtime and all its clients.
pub struct RuntimeTelemetry {
    /// Round-trip latency of synchronous calls (allocations in the malloc
    /// deployment), in [`ngm_telemetry::clock::cycles_now`] units.
    pub call_cycles: LatencyHistogram,
    /// Latency of fire-and-forget posts (asynchronous frees): time to
    /// place the message in the ring, including full-ring retries.
    pub post_cycles: LatencyHistogram,
    /// Round-trip latency of *batched* synchronous calls (magazine
    /// refills). Kept separate from `call_cycles` so the amortized
    /// per-item cost of the batched handshake can be compared against the
    /// per-call round trip without mixing the two populations.
    pub refill_cycles: LatencyHistogram,
    /// Per-phase breakdowns of every synchronous round trip — single
    /// calls and batched refills alike — indexed as [`PHASE_NAMES`].
    ///
    /// The client records two, from the same two endpoint readings as
    /// the request's `call_cycles` or `refill_cycles` record: claim
    /// (published → claimed) and observe (claimed → client observed: the
    /// serve, the response's way back, and for a request collected after
    /// the client went back to work, the time the response waited for
    /// it). Per request they sum to exactly the recorded round trip, and
    /// in total to the two histograms' sums.
    ///
    /// The service records serve (claimed → response published, read
    /// after the RESPONSE store), and it is that entry's only writer. It
    /// lies inside the client's observe phase rather than beside it. It
    /// is recorded after the response is published, so a live read may
    /// trail the served calls by the one serve in progress; once the
    /// runtime has shut down it counts exactly the calls served.
    ///
    /// The queue and publish entries (indices 0 and 3) are always empty:
    /// the client's one stamp follows its REQUEST store, and a response is
    /// published where it is written. They survive only until ROADMAP
    /// item 1(b) deletes them, because `benchmark/` still reads five
    /// entries.
    pub phase_cycles: [LatencyHistogram; PHASES],
    /// Always empty: nothing records into it. Survives only until
    /// ROADMAP item 1(b) deletes it, because `benchmark/` still reads it.
    pub submit_depth: LatencyHistogram,
    /// Capacity of each per-thread trace ring; 0 disables tracing.
    trace_capacity: usize,
    /// All trace rings ever created for this runtime (service loop plus
    /// one per client), kept for draining.
    rings: Mutex<Vec<Arc<TraceRing>>>,
    next_thread: AtomicU32,
}

impl std::fmt::Debug for RuntimeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeTelemetry")
            .field("trace_capacity", &self.trace_capacity)
            .field("call_cycles", &self.call_cycles)
            .field("post_cycles", &self.post_cycles)
            .field("refill_cycles", &self.refill_cycles)
            .finish_non_exhaustive()
    }
}

impl RuntimeTelemetry {
    /// Creates telemetry; `trace_capacity` of 0 disables event tracing
    /// (histograms and gauges are always on — they are too cheap to
    /// gate).
    #[must_use]
    pub fn new(trace_capacity: usize) -> Self {
        RuntimeTelemetry {
            call_cycles: LatencyHistogram::new(),
            post_cycles: LatencyHistogram::new(),
            refill_cycles: LatencyHistogram::new(),
            phase_cycles: std::array::from_fn(|_| LatencyHistogram::new()),
            submit_depth: LatencyHistogram::new(),
            trace_capacity,
            rings: Mutex::new(Vec::new()),
            next_thread: AtomicU32::new(0),
        }
    }

    /// Creates (and retains for draining) a trace ring with the next
    /// runtime thread id, or `None` when tracing is disabled. Thread id 0
    /// is the service loop — it registers first.
    pub fn new_ring(&self) -> Option<Arc<TraceRing>> {
        if self.trace_capacity == 0 {
            return None;
        }
        let thread = self.next_thread.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(TraceRing::new(thread, self.trace_capacity));
        self.adopt_ring(Arc::clone(&ring));
        Some(ring)
    }

    /// Retains a ring built elsewhere — whatever its capacity and thread
    /// id, and whether or not tracing is enabled — so draining, peeking
    /// and the drop count cover it like the runtime's own.
    pub fn adopt_ring(&self, ring: Arc<TraceRing>) {
        self.lock_rings().push(ring);
    }

    fn lock_rings(&self) -> std::sync::MutexGuard<'_, Vec<Arc<TraceRing>>> {
        self.rings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Drains every ring, returning all events merged in timestamp order
    /// plus the summed overflow-drop count.
    #[must_use]
    pub fn drain_trace(&self) -> TraceDrain {
        let rings: Vec<Arc<TraceRing>> = self.lock_rings().clone();
        let mut events = Vec::new();
        let mut dropped_total = 0;
        for r in rings {
            let d = r.drain();
            events.extend(d.events);
            dropped_total += d.dropped_total;
        }
        events.sort_by_key(|e| e.tsc);
        TraceDrain {
            events,
            dropped_total,
        }
    }

    /// Total trace events lost to ring overflow so far (without
    /// draining).
    #[must_use]
    pub fn trace_dropped_total(&self) -> u64 {
        self.lock_rings().iter().map(|r| r.dropped_total()).sum()
    }

    /// Copies up to the `last` most recent events from every ring, merged
    /// in timestamp order, *without* draining — the read of a post-mortem
    /// view: it must not consume history that a later `drain_trace` (or
    /// a second view) still wants.
    #[must_use]
    pub fn peek_trace(&self, last: usize) -> Vec<ngm_telemetry::trace::TraceEvent> {
        let rings: Vec<Arc<TraceRing>> = self.lock_rings().clone();
        let mut events: Vec<_> = rings.iter().flat_map(|r| r.peek(last)).collect();
        events.sort_by_key(|e| e.tsc);
        let skip = events.len().saturating_sub(last);
        events.drain(..skip);
        events
    }

    /// The client's share of one round trip's phase breakdown: claim and
    /// observe, split at the slot's `claim` stamp. `t0`/`t5` are the
    /// *same* endpoint readings used for its latency record, so the two
    /// phases sum to exactly the recorded round trip. The claim stamp is
    /// clamped into `[t0, t5]`: the service reads the clock before its
    /// claim CAS, which may be before the client's REQUEST store.
    pub fn record_phases(&self, t0: u64, claim: u64, t5: u64) {
        let t2 = claim.clamp(t0, t5);
        self.phase_cycles[CLAIM].record(t2 - t0);
        self.phase_cycles[OBSERVE].record(t5 - t2);
    }

    /// The service's share: one serve, from its clock reading before the
    /// claim CAS to its reading after the RESPONSE store.
    pub fn record_serve(&self, claim: u64, served: u64) {
        self.phase_cycles[SERVE].record(served.saturating_sub(claim));
    }

    /// Assembles the exportable metrics snapshot: the runtime's counters
    /// and gauges (from `stats`) plus both latency histograms.
    #[must_use]
    pub fn metrics(&self, stats: &StatsSnapshot) -> MetricsSnapshot {
        self.metrics_merged(stats, &[])
    }

    /// As [`RuntimeTelemetry::metrics`], but folding in `peers` — the
    /// other shards of a sharded service tier. Latency histograms and
    /// trace-drop totals merge across all telemetries (each series
    /// appears once, covering every shard); `stats` is expected to be the
    /// callers' already-merged counter snapshot.
    #[must_use]
    pub fn metrics_merged(
        &self,
        stats: &StatsSnapshot,
        peers: &[&RuntimeTelemetry],
    ) -> MetricsSnapshot {
        let mut call = self.call_cycles.snapshot();
        let mut post = self.post_cycles.snapshot();
        let mut refill = self.refill_cycles.snapshot();
        let mut phases: Vec<_> = self.phase_cycles.iter().map(|h| h.snapshot()).collect();
        let mut trace_dropped = self.trace_dropped_total();
        for p in peers {
            call.merge(&p.call_cycles.snapshot());
            post.merge(&p.post_cycles.snapshot());
            refill.merge(&p.refill_cycles.snapshot());
            for (acc, h) in phases.iter_mut().zip(&p.phase_cycles) {
                acc.merge(&h.snapshot());
            }
            trace_dropped += p.trace_dropped_total();
        }
        let mut m = MetricsSnapshot::new();
        m.counter("ngm_calls_total", stats.calls_served)
            .counter("ngm_posts_total", stats.posts_served)
            .counter("ngm_poll_rounds_total", stats.poll_rounds)
            .counter("ngm_empty_rounds_total", stats.empty_rounds)
            .counter("ngm_clients_registered_total", stats.clients_registered)
            .counter("ngm_post_full_retries_total", stats.post_full_retries)
            .counter("ngm_posts_dropped_total", stats.posts_dropped)
            .counter("ngm_rebalances_total", stats.rebalances)
            .counter("ngm_failovers_total", stats.failovers)
            .gauge("ngm_service_down", i64::from(stats.service_down))
            .counter("ngm_deadline_total", stats.deadlines)
            .counter("ngm_wait_transitions_total", stats.wait_transitions)
            .counter("ngm_trace_dropped_total", trace_dropped)
            .gauge("ngm_ring_occupancy", stats.ring_occupancy as i64)
            .gauge("ngm_magazine_occupancy", stats.magazine_occupancy)
            .gauge("ngm_wait_phase", stats.wait_phase as i64)
            .gauge(
                "ngm_pinned_core",
                stats.pinned_core.map_or(-1, |c| c as i64),
            )
            .gauge(
                "ngm_clock_is_tsc",
                i64::from(ngm_telemetry::clock::source() == "tsc_cycles"),
            )
            .histogram("ngm_call_cycles", call)
            .histogram("ngm_post_cycles", post)
            .histogram("ngm_refill_cycles", refill);
        for (name, snap) in PHASE_NAMES.iter().zip(phases) {
            m.histogram(format!("ngm_phase_{name}_cycles"), snap);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngm_telemetry::trace::TraceEventKind;

    #[test]
    fn disabled_tracing_yields_no_rings() {
        let t = RuntimeTelemetry::new(0);
        assert!(t.new_ring().is_none());
        assert!(t.drain_trace().events.is_empty());
    }

    #[test]
    fn rings_get_distinct_thread_ids() {
        let t = RuntimeTelemetry::new(16);
        let a = t.new_ring().unwrap();
        let b = t.new_ring().unwrap();
        a.push(TraceEventKind::Post, 1, 0);
        b.push(TraceEventKind::Post, 2, 0);
        let d = t.drain_trace();
        let mut threads: Vec<u32> = d.events.iter().map(|e| e.thread).collect();
        threads.sort_unstable();
        assert_eq!(threads, vec![0, 1]);
    }

    #[test]
    fn drain_merges_in_timestamp_order() {
        let t = RuntimeTelemetry::new(64);
        let a = t.new_ring().unwrap();
        let b = t.new_ring().unwrap();
        for i in 0..10 {
            if i % 2 == 0 {
                a.push(TraceEventKind::Alloc, i, 0);
            } else {
                b.push(TraceEventKind::Free, i, 0);
            }
        }
        let d = t.drain_trace();
        assert_eq!(d.events.len(), 10);
        assert!(d.events.windows(2).all(|w| w[0].tsc <= w[1].tsc));
    }

    #[test]
    fn client_phases_sum_to_the_round_trip_and_serve_is_booked_apart() {
        let t = RuntimeTelemetry::new(0);
        let sum = |i: usize| t.phase_cycles[i].snapshot().sum();
        // A normal call: t0=100, claimed at 150, t5=1000.
        t.record_phases(100, 150, 1000);
        assert_eq!(sum(CLAIM) + sum(OBSERVE), 900, "t5 - t0 exactly");
        // The service read the clock before the client's REQUEST store:
        // the claim clamps to t0 and the observe phase takes it all.
        t.record_phases(2000, 1990, 2100);
        assert_eq!(sum(CLAIM) + sum(OBSERVE), 900 + 100);
        assert_eq!(sum(CLAIM), 50);
        t.record_serve(150, 900);
        assert_eq!(sum(SERVE), 750);
        let stats = crate::stats::RuntimeStats::new().snapshot();
        let m = t.metrics(&stats);
        for (name, recorded) in PHASE_NAMES.into_iter().zip([0, 2, 1, 0, 2]) {
            let h = m
                .get_histogram(&format!("ngm_phase_{name}_cycles"))
                .unwrap_or_else(|| panic!("missing phase series {name}"));
            assert_eq!(h.count(), recorded, "{name}");
        }
    }

    #[test]
    fn phase_histograms_merge_across_peers() {
        let a = RuntimeTelemetry::new(0);
        let b = RuntimeTelemetry::new(0);
        a.record_phases(0, 20, 50);
        b.record_phases(0, 20, 50);
        let stats = crate::stats::RuntimeStats::new().snapshot();
        let m = a.metrics_merged(&stats, &[&b]);
        let h = m.get_histogram("ngm_phase_claim_cycles").expect("series");
        assert_eq!(h.count(), 2, "both peers' records in one series");
    }

    #[test]
    fn peek_trace_is_non_draining_and_merged() {
        let t = RuntimeTelemetry::new(16);
        let a = t.new_ring().unwrap();
        let b = t.new_ring().unwrap();
        a.push_at(10, TraceEventKind::Alloc, 1, 0);
        b.push_at(5, TraceEventKind::Free, 2, 0);
        a.push_at(20, TraceEventKind::Alloc, 3, 0);
        let peeked = t.peek_trace(2);
        assert_eq!(peeked.len(), 2, "bounded to `last` across all rings");
        assert_eq!(peeked[0].a, 1, "newest events win, oldest first");
        assert_eq!(peeked[1].a, 3);
        assert_eq!(t.drain_trace().events.len(), 3, "peek consumed nothing");
    }

    #[test]
    fn metrics_snapshot_contains_everything() {
        let t = RuntimeTelemetry::new(0);
        t.call_cycles.record(100);
        t.call_cycles.record(200);
        t.post_cycles.record(30);
        t.refill_cycles.record(500);
        let stats = crate::stats::RuntimeStats::new().snapshot();
        let m = t.metrics(&stats);
        assert_eq!(m.get_counter("ngm_calls_total"), Some(0));
        assert_eq!(m.get_gauge("ngm_pinned_core"), Some(-1));
        assert_eq!(m.get_gauge("ngm_magazine_occupancy"), Some(0));
        assert_eq!(
            m.get_histogram("ngm_refill_cycles").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(
            m.get_histogram("ngm_call_cycles").map(|h| h.count()),
            Some(2)
        );
        assert_eq!(
            m.get_histogram("ngm_post_cycles").map(|h| h.count()),
            Some(1)
        );
        let text = m.to_prometheus_text();
        assert!(text.contains("ngm_call_cycles{quantile=\"0.99\"}"));
    }
}
