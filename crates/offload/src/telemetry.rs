//! Per-runtime telemetry: request-latency histograms, trace rings, the
//! span log, and the metrics snapshot assembly.
//!
//! One [`RuntimeTelemetry`] is shared (via `Arc`) between the service
//! loop and every [`crate::ClientHandle`]. A timed round trip is one
//! record, a `Trip`, booked by the side that ended it: the service books
//! every trip it served (latency, phases and, traced, its span) once it
//! sees the client has collected the response, and the client books a
//! trip it retracted or abandoned (its span, traced) and a timed post's
//! enqueue latency. Every clock read lies outside the
//! window from the service's claim to its response, so measurement adds
//! nothing to the round trip being measured (§4.1's `T_comm`), except
//! for a timed trip whose sequence a retract moved on, which the service
//! did not expect and stamps after its claim.
//!
//! A runtime with a trace ring times every trip and every post, so its
//! spans are whole. One without times one trip and one post in
//! `SAMPLE_PERIOD`, as `sampled` picks them: a trip by its publish
//! sequence, which the client and the service both know, a post by the
//! client's own count of posts. Neither side reads the clock or makes a
//! locked add for the rest, so the histograms are samples and their
//! counts are not the counts of operations: those come from the
//! counters ([`crate::StatsSnapshot::calls_served`] and
//! [`crate::StatsSnapshot::posts_served`]), and a total is the sampled
//! mean times the counted operations.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::hist::LatencyHistogram;
use ngm_telemetry::span::{Span, SpanPhase};
use ngm_telemetry::trace::{TraceDrain, TraceRing};

use crate::service::CallKind;
use crate::stats::StatsSnapshot;

/// Number of round-trip phases tracked per call (see
/// [`RuntimeTelemetry::phase_cycles`]).
pub const PHASES: usize = 5;

/// Stable phase names, lifecycle order; index-aligned with
/// [`RuntimeTelemetry::phase_cycles`] and the exported
/// `ngm_phase_{name}_cycles` series.
pub const PHASE_NAMES: [&str; PHASES] = ["queue", "claim", "serve", "publish", "observe"];

/// [`PHASE_NAMES`] indices of the phases a booked trip records.
const CLAIM: usize = 1;
const SERVE: usize = 2;
const OBSERVE: usize = 4;

/// One trip (and one post) in this many is timed on a runtime without a
/// trace ring. Not a setting: what a histogram reads off 1 in 64 is what
/// it reads off all of them, and timing all of them is what tracing is
/// for.
const SAMPLE_PERIOD: u64 = 64;

/// Whether the `n`th trip (its publish sequence) or post (the client's
/// count of its posts) of an untraced runtime is timed: whether `n`
/// times the golden ratio's 64-bit fraction falls in the first
/// `1 / SAMPLE_PERIOD` of the range. Consecutive `n` spread evenly, so
/// two timed ones lie 34, 55 or 89 apart and a workload's own period
/// does not line up with the sample. One multiply and one compare.
#[inline]
#[must_use]
pub(crate) fn sampled(n: u64) -> bool {
    n.wrapping_mul(0x9E37_79B9_7F4A_7C15) < u64::MAX / SAMPLE_PERIOD
}

/// One timed round trip: the one record its books are derived from. The
/// client stamps `t0` after its REQUEST store and `t5` when it sees
/// RESPONSE; the service stamps `claim` before its claim CAS (after it,
/// for a trip whose sequence a retract moved on) and `served` after its
/// RESPONSE store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Trip {
    pub(crate) seq: u64,
    pub(crate) kind: CallKind,
    pub(crate) t0: u64,
    pub(crate) claim: u64,
    pub(crate) served: u64,
    pub(crate) t5: u64,
}

impl Trip {
    /// The one function that builds a served trip's phases, as its span,
    /// named by `thread`, the client's runtime thread id. The claim stamp
    /// becomes `claim' = max(claim, t0)`, and the served stamp is clamped
    /// into `[claim', t5]`. A claim stamp before `t0` means the service
    /// read the clock before the request arrived and claimed it on
    /// arrival: the trip books no claim phase, and its observe phase
    /// (`claim'` to `t5`) covers the whole trip. So claim + observe is the
    /// latency exactly, and the serve phase never includes the service's
    /// wait for the request.
    pub(crate) fn span(&self, thread: u32) -> Span {
        let t5 = self.t5.max(self.t0);
        let claimed = self.claim.clamp(self.t0, t5);
        Span {
            thread,
            seq: self.seq,
            batched: self.kind == CallKind::Batched,
            enqueue: self.t0,
            served: Some((claimed, self.served.clamp(claimed, t5))),
            end: SpanPhase::Observed,
            end_tsc: t5,
        }
    }
}

/// Telemetry shared by one offload runtime and all its clients.
pub struct RuntimeTelemetry {
    /// Round-trip latency of timed synchronous calls (allocations in the
    /// malloc deployment), in [`ngm_telemetry::clock::cycles_now`] units.
    /// Every histogram here holds the timed operations only: every one
    /// on a traced runtime, one in `SAMPLE_PERIOD` otherwise (see the
    /// module docs).
    pub call_cycles: LatencyHistogram,
    /// Latency of timed fire-and-forget posts (asynchronous frees): time
    /// to place the message in the ring, including full-ring retries.
    pub post_cycles: LatencyHistogram,
    /// Round-trip latency of timed *batched* synchronous calls (magazine
    /// refills). Kept separate from `call_cycles` so the amortized
    /// per-item cost of the batched handshake can be compared against the
    /// per-call round trip without mixing the two populations.
    pub refill_cycles: LatencyHistogram,
    /// Per-phase breakdowns of every timed synchronous round trip —
    /// single calls and batched refills alike — indexed as
    /// [`PHASE_NAMES`], booked by the service from the same record as the
    /// trip's latency (see `Trip::span`): claim (published → claimed,
    /// booked only when the request was not claimed on arrival), serve
    /// (claimed → response published) and observe (claimed → client
    /// observed: the serve, the response's way back, and for a request
    /// collected after the client went back to work, the time the
    /// response waited for it). Claim and observe sum to exactly the two
    /// latency histograms' sums. A trip is booked once its client has
    /// collected it, so these are whole once the runtime has shut down.
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
    /// Capacity of each per-thread trace ring and of the span log; 0
    /// disables tracing.
    trace_capacity: usize,
    /// One span per traced synchronous request, written whole by the
    /// side that ended it; `None` untraced.
    spans: Option<TraceRing<Span>>,
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
    /// and has the histograms sample one operation in `SAMPLE_PERIOD`.
    #[must_use]
    pub fn new(trace_capacity: usize) -> Self {
        RuntimeTelemetry {
            call_cycles: LatencyHistogram::new(),
            post_cycles: LatencyHistogram::new(),
            refill_cycles: LatencyHistogram::new(),
            phase_cycles: std::array::from_fn(|_| LatencyHistogram::new()),
            submit_depth: LatencyHistogram::new(),
            trace_capacity,
            spans: (trace_capacity > 0).then(|| TraceRing::new(0, trace_capacity)),
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

    /// Total trace events and spans lost to ring overflow so far
    /// (without draining).
    #[must_use]
    pub fn trace_dropped_total(&self) -> u64 {
        let spans = self.spans.as_ref().map_or(0, TraceRing::dropped_total);
        spans
            + self
                .lock_rings()
                .iter()
                .map(|r| r.dropped_total())
                .sum::<u64>()
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

    /// Up to the `last` most recent spans (oldest first) without
    /// draining; empty untraced.
    #[must_use]
    pub fn spans(&self, last: usize) -> Vec<Span> {
        self.spans
            .as_ref()
            .map_or_else(Vec::new, |log| log.peek(last))
    }

    /// Logs one span, on a traced runtime only.
    pub(crate) fn log_span(&self, span: Span) {
        if let Some(log) = &self.spans {
            log.record(span);
        }
    }

    /// Books one timed trip the service served, once its client has
    /// collected the response: its latency in the population of its
    /// kind, its phases as [`Trip::span`] builds them, and on a traced
    /// runtime the span itself.
    pub(crate) fn book(&self, thread: u32, trip: &Trip) {
        let span = trip.span(thread);
        let (claimed, served) = span.served.expect("a served trip has both stamps");
        let latency = match trip.kind {
            CallKind::Single => &self.call_cycles,
            CallKind::Batched => &self.refill_cycles,
        };
        latency.record(span.total_cycles());
        if trip.claim >= trip.t0 {
            self.phase_cycles[CLAIM].record(claimed - trip.t0);
        }
        self.phase_cycles[SERVE].record(served - claimed);
        self.phase_cycles[OBSERVE].record(span.end_tsc - claimed);
        self.log_span(span);
    }

    /// Assembles the exportable metrics snapshot: the runtime's counters
    /// and gauges (from `stats`) plus the latency histograms, whose
    /// `_count` counts timed operations, not operations.
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

    /// A trip with planted stamps; 7 names it.
    fn trip(kind: CallKind, t0: u64, claim: u64, served: u64, t5: u64) -> Trip {
        Trip {
            seq: 7,
            kind,
            t0,
            claim,
            served,
            t5,
        }
    }

    #[test]
    fn one_function_builds_the_phases_and_they_partition_the_trip() {
        let t = RuntimeTelemetry::new(8);
        let trips = [
            // Claimed at 150 after a REQUEST at 100: a claim phase of 50.
            trip(CallKind::Single, 100, 150, 900, 1000),
            // The claim stamp precedes t0: claimed on arrival, no claim
            // phase, and observe covers the whole trip.
            trip(CallKind::Single, 2000, 1990, 2050, 2100),
            // A served stamp after t5 is clamped to it.
            trip(CallKind::Batched, 3000, 3010, 3200, 3100),
        ];
        let served: Vec<_> = trips.iter().map(|tr| tr.span(1).served).collect();
        assert_eq!(
            served,
            [Some((150, 900)), Some((2000, 2050)), Some((3010, 3100))]
        );
        for tr in &trips {
            t.book(1, tr);
        }
        let [calls, refills, claim, serve, observe] = [
            &t.call_cycles,
            &t.refill_cycles,
            &t.phase_cycles[CLAIM],
            &t.phase_cycles[SERVE],
            &t.phase_cycles[OBSERVE],
        ]
        .map(LatencyHistogram::snapshot);
        assert_eq!((calls.count(), calls.sum()), (2, 900 + 100));
        assert_eq!((refills.count(), refills.sum()), (1, 100));
        assert_eq!((claim.count(), claim.sum()), (2, 50 + 10));
        assert_eq!((serve.count(), serve.sum()), (3, 750 + 50 + 90));
        assert_eq!((observe.count(), observe.sum()), (3, 850 + 100 + 90));
        assert_eq!(claim.sum() + observe.sum(), calls.sum() + refills.sum());
        let spans = t.spans(usize::MAX);
        let ends: Vec<_> = spans.iter().map(|s| (s.end, s.total_cycles())).collect();
        assert_eq!(ends, [900, 100, 100].map(|c| (SpanPhase::Observed, c)));
        assert!(RuntimeTelemetry::new(0).spans(usize::MAX).is_empty());
    }

    #[test]
    fn phase_histograms_merge_across_peers() {
        let a = RuntimeTelemetry::new(0);
        let b = RuntimeTelemetry::new(0);
        a.book(1, &trip(CallKind::Single, 0, 20, 30, 50));
        b.book(1, &trip(CallKind::Single, 0, 20, 30, 50));
        let stats = crate::stats::RuntimeStats::new().snapshot();
        let m = a.metrics_merged(&stats, &[&b]);
        let h = m.get_histogram("ngm_phase_claim_cycles").expect("series");
        assert_eq!(h.count(), 2, "both peers' records in one series");
    }

    #[test]
    fn one_in_sample_period_is_sampled_and_never_two_close_together() {
        let picked: Vec<u64> = (1..=64 * 1_000).filter(|&n| sampled(n)).collect();
        assert!(
            picked.len().abs_diff(1_000) <= 2,
            "{} of 64,000 sampled",
            picked.len()
        );
        let mut gaps: Vec<u64> = picked.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        gaps.dedup();
        assert_eq!(gaps, [34, 55, 89]);
        assert_eq!(picked[..3], [34, 89, 178], "the first trips timed");
    }

    #[test]
    fn the_sampled_set_is_the_one_it_always_was() {
        // The first 1,000 publish sequences time these, as they did before
        // the service booked the trips.
        let picked = [
            34, 89, 178, 233, 267, 322, 411, 466, 555, 610, 644, 699, 788, 843, 932,
        ];
        assert!((1..=1_000).filter(|&n| sampled(n)).eq(picked));
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
