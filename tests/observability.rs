//! Observability contract tests: span reconstruction, phase coverage,
//! and the Prometheus exposition format of the live metrics endpoint.
//!
//! Three layers are pinned here. (1) **Spans**: any interleaving of span
//! trace events — synthetic or drained from a live tier — reconstructs
//! into well-nested, phase-monotonic spans. (2) **Coverage**: the
//! phase histograms partition the synchronous round trip, so their sums
//! must land within 10% of `ngm_call_cycles`' sum (the acceptance bar;
//! the stamps are clamped, so the identity is exact by construction).
//! (3) **Exposition**: `to_prometheus_text()` on a live snapshot is
//! valid text format 0.0.4 — every family announced by HELP+TYPE, every
//! series unique, every value numeric, and every per-shard family one
//! sample per shard.
//!
//! The `faultinject` module adds the failure-path contracts: a
//! dropped-then-retried request is *two* spans (ids never alias across
//! retries), and a wedged shard's deadline is one failure event, which
//! `/blackbox` renders with the shard's trace tail up to it.

use std::alloc::Layout;
use std::collections::{HashMap, HashSet};

use ngm_core::{CorePlacement, NgmConfig};
use ngm_offload::{PHASES, PHASE_NAMES};
use ngm_telemetry::span::{call_span_id, reconstruct, SpanPhase};
use ngm_telemetry::trace::{TraceEvent, TraceEventKind};
use proptest::prelude::*;

/// Deterministic generator state for the property tests (the proptest
/// shim drives `seed`; everything downstream is a pure function of it).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

/// The phase sequence of one synthetic span: a lifecycle prefix, or a
/// prefix cut short by a terminal retract/abandon.
fn synthetic_phases(progress: u64) -> Vec<SpanPhase> {
    match progress % 6 {
        0 => vec![SpanPhase::Enqueue],
        1 => vec![SpanPhase::Enqueue, SpanPhase::Claimed],
        2 => vec![SpanPhase::Enqueue, SpanPhase::Claimed, SpanPhase::Served],
        3 => vec![
            SpanPhase::Enqueue,
            SpanPhase::Claimed,
            SpanPhase::Served,
            SpanPhase::Observed,
        ],
        4 => vec![SpanPhase::Enqueue, SpanPhase::Retracted],
        _ => vec![SpanPhase::Enqueue, SpanPhase::Claimed, SpanPhase::Abandoned],
    }
}

fn span_event(tsc: u64, thread: u32, id: u64, phase: SpanPhase) -> TraceEvent {
    TraceEvent {
        tsc,
        thread,
        kind: TraceEventKind::Span,
        a: id,
        b: phase.code(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concurrent spans emit their phase events interleaved and the
    /// drain order is arbitrary — reconstruction must still yield one
    /// well-nested, phase-monotonic span per id, with the exact phase
    /// set each span emitted.
    #[test]
    fn interleaved_concurrent_spans_reconstruct_well_nested(
        spans in 1usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let mut expected: HashMap<u64, Vec<SpanPhase>> = HashMap::new();
        let mut pending: Vec<(u64, u32, std::vec::IntoIter<SpanPhase>)> = (0..spans)
            .map(|i| {
                let thread = (rng.next() % 4) as u32;
                let id = call_span_id(thread, i as u64 + 1);
                let phases = synthetic_phases(rng.next());
                expected.insert(id, phases.clone());
                (id, thread, phases.into_iter())
            })
            .collect();

        // Interleave: each round, a random still-live span emits its
        // next phase at a strictly later timestamp.
        let mut events = Vec::new();
        let mut tsc = 100u64;
        while !pending.is_empty() {
            let pick = (rng.next() as usize) % pending.len();
            let (id, thread, ref mut it) = pending[pick];
            match it.next() {
                Some(phase) => {
                    tsc += 1 + rng.next() % 50;
                    events.push(span_event(tsc, thread, id, phase));
                }
                None => {
                    pending.swap_remove(pick);
                }
            }
        }
        // Scramble the drain order on top of the interleaving.
        for i in (1..events.len()).rev() {
            events.swap(i, (rng.next() as usize) % (i + 1));
        }

        let got = reconstruct(&events);
        prop_assert_eq!(got.len(), expected.len());
        for span in &got {
            prop_assert!(span.well_nested(), "span {:#x}: {:?}", span.id, span.phases);
            prop_assert!(span.phase_monotonic(), "span {:#x}: {:?}", span.id, span.phases);
            let want = &expected[&span.id];
            let got_phases: Vec<SpanPhase> = span.phases.iter().map(|&(p, _)| p).collect();
            prop_assert_eq!(&got_phases, want, "phase set round-trips");
            prop_assert_eq!(
                span.completed(),
                want.last().is_some_and(|p| p.is_terminal()),
            );
        }
    }
}

/// Drains a live single-shard tier's trace and reconstructs it: every
/// span the runtime emitted (one per synchronous call; a post is one
/// `Post` event, not a span) must be well-nested and phase-monotonic
/// and run the full enqueue→observed lifecycle.
#[test]
fn live_trace_reconstructs_into_well_nested_spans() {
    const ROUNDS: usize = 256;
    let ngm = NgmConfig::new()
        .with_placement(CorePlacement::Unpinned)
        .with_trace_capacity(16_384)
        .build()
        .expect("valid config");
    let mut h = ngm.handle();
    for i in 0..ROUNDS {
        let l = Layout::from_size_align(16 + (i % 8) * 16, 8).expect("valid");
        let p = h.alloc(l).expect("alloc");
        // SAFETY: block just allocated, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);

    let drain = ngm.telemetry().drain_trace();
    let spans = reconstruct(&drain.events);
    assert!(!spans.is_empty(), "round trips produce call spans");
    let mut ids = HashSet::new();
    for s in &spans {
        assert!(s.well_nested(), "span {:#x}: {:?}", s.id, s.phases);
        assert!(s.phase_monotonic(), "span {:#x}: {:?}", s.id, s.phases);
        assert!(ids.insert(s.id), "span ids are unique");
    }
    // Every completed call observed its response (nothing retracted or
    // abandoned on a healthy tier) after a full four-phase lifecycle.
    for s in spans.iter().filter(|s| s.completed()) {
        assert_eq!(
            s.phases.last().map(|&(p, _)| p),
            Some(SpanPhase::Observed),
            "healthy calls end observed: {:?}",
            s.phases
        );
        if s.at(SpanPhase::Enqueue).is_some() {
            assert_eq!(s.phases.len(), 4, "full lifecycle: {:?}", s.phases);
            assert!(s.total_cycles().is_some());
        }
    }
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// Acceptance smoke: the client's phase sums partition `ngm_call_cycles`
/// within 10% on a live tier (exact by construction; the slack covers
/// histogram bucketing).
#[test]
fn phase_histograms_cover_the_call_histogram() {
    const ROUNDS: usize = 4_000;
    // The per-call handshake: every alloc is one stamped round trip.
    let ngm = NgmConfig::new()
        .with_batch(1, 1)
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    let mut h = ngm.handle();
    for i in 0..ROUNDS {
        let l = Layout::from_size_align(16 + (i % 8) * 16, 8).expect("valid");
        let p = h.alloc(l).expect("alloc");
        // SAFETY: block just allocated, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);

    let m = ngm.metrics();
    let call_sum = m
        .get_histogram("ngm_call_cycles")
        .expect("call histogram exported")
        .sum();
    // The client's phases partition its round trip. The service books
    // serve, which lies inside the client's observe phase.
    let phase_sum: u64 = PHASE_NAMES
        .iter()
        .filter(|&&name| name != "serve")
        .map(|name| {
            m.get_histogram(&format!("ngm_phase_{name}_cycles"))
                .expect("every phase histogram exported")
                .sum()
        })
        .sum();
    assert_eq!(PHASE_NAMES.len(), PHASES);
    let coverage = phase_sum as f64 / call_sum.max(1) as f64;
    assert!(
        (coverage - 1.0).abs() < 0.10,
        "phase sums cover the round trip: phase_sum={phase_sum} call_sum={call_sum} ({coverage:.4})"
    );
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// Validates Prometheus text exposition format 0.0.4 over a rendered
/// snapshot, panicking with the violation. The full rule set lives in
/// [`ngm_telemetry::export::validate_exposition`] — the same validator
/// the live `/metrics` endpoint tests and the `repro obs` experiment
/// run — so this suite and the observer can never drift apart on what
/// "valid" means.
fn validate_exposition(text: &str) {
    if let Err(why) = ngm_telemetry::export::validate_exposition(text) {
        panic!("invalid exposition: {why}");
    }
}

/// Every series the live tier exports — counters, histograms-as-
/// summaries, and the per-shard labeled gauges — renders as valid
/// exposition text, with the convention-prefixed `ngm_` names, and each
/// per-shard family carries exactly one sample per shard.
#[test]
fn live_metrics_render_valid_exposition_text() {
    let ngm = NgmConfig::new()
        .with_shards(3)
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    let mut h = ngm.handle();
    for i in 0..64usize {
        let l = Layout::from_size_align(16 + (i % 4) * 32, 8).expect("valid");
        let p = h.alloc(l).expect("alloc");
        // SAFETY: block just allocated, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);

    let m = ngm.metrics();
    let text = m.to_prometheus_text();
    validate_exposition(&text);
    for needle in [
        "# TYPE ngm_calls_total counter",
        "# TYPE ngm_call_cycles summary",
        "# TYPE ngm_phase_queue_cycles summary",
        "# TYPE ngm_shard_calls_served gauge",
        "ngm_fallback_allocs_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    for family in [
        "ngm_shard_ring_occupancy",
        "ngm_shard_calls_served",
        "ngm_shard_deadlines",
        "ngm_shard_post_full_retries",
    ] {
        for shard in 0..3 {
            let sample = format!("{family}{{shard=\"{shard}\"}} ");
            assert_eq!(text.matches(&sample).count(), 1, "{sample} in:\n{text}");
        }
        assert_eq!(m.labeled_gauge_count(family), 3, "{family}");
    }
    let families = text
        .lines()
        .filter(|l| l.starts_with("# TYPE ngm_shard_"))
        .count();
    assert_eq!(families, 4, "no other per-shard family:\n{text}");
    // Every exported family follows the `ngm_` naming convention; the
    // lone exception is the conventional `process_start_time_seconds`
    // Prometheus itself expects from every scrape target.
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().expect("name");
            assert!(
                name.starts_with("ngm_") || name.starts_with("process_"),
                "unprefixed family: {name}"
            );
        }
    }
    // The scrape-target conventions are present.
    for needle in [
        "ngm_up 1",
        "ngm_build_info{",
        "process_start_time_seconds",
        "ngm_obs_scrape_cycles_total",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// `ngm_heap_large_allocs_total` is announced as a counter, so it may
/// never fall: it used to be fed from the heap's *live* large-block
/// count and went down on every large free.
#[test]
fn large_allocs_counter_is_monotone_across_frees() {
    let ngm = NgmConfig::new()
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    let mut h = ngm.handle();
    let l = Layout::from_size_align(1 << 16, 8).expect("valid");
    let scrape = || {
        ngm.metrics()
            .get_counter("ngm_heap_large_allocs_total")
            .expect("exported")
    };
    let mut seen = vec![scrape()];
    for _ in 0..3 {
        let p = h.alloc(l).expect("alloc");
        seen.push(scrape());
        // SAFETY: block just allocated, freed once.
        unsafe { h.dealloc(p, l) };
        seen.push(scrape());
    }
    assert_eq!(seen, [0, 1, 1, 2, 2, 3, 3], "allocations ever, not live");
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

#[test]
fn exposition_validator_rejects_malformed_text() {
    let ok = "# HELP ngm_x_total Cumulative count of x events.\n# TYPE ngm_x_total counter\nngm_x_total 3\n";
    validate_exposition(ok);
    for bad in [
        // Sample with no announced family.
        "ngm_y_total 3\n",
        // TYPE without HELP.
        "# TYPE ngm_x_total counter\nngm_x_total 3\n",
        // Duplicate series.
        "# HELP ngm_x_total h\n# TYPE ngm_x_total counter\nngm_x_total 3\nngm_x_total 4\n",
        // Non-numeric value.
        "# HELP ngm_x_total h\n# TYPE ngm_x_total counter\nngm_x_total three\n",
    ] {
        assert!(
            std::panic::catch_unwind(|| validate_exposition(bad)).is_err(),
            "validator accepted malformed text: {bad:?}"
        );
    }
}

#[cfg(feature = "faultinject")]
mod faultinject {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use ngm_core::{FailureReason, ObserverConfig};
    use ngm_offload::{CallKind, OffloadRuntime, RuntimeConfig, Service, ServiceError};
    use ngm_telemetry::server::http_get;

    #[derive(Debug)]
    struct Echo;

    impl Service for Echo {
        type Req = u64;
        type Resp = u64;
        type Post = u64;

        fn call(&mut self, req: u64) -> u64 {
            req * 2
        }

        fn post(&mut self, _msg: u64) {}
    }

    /// A dropped-then-retried request is **two spans**: the drop ends
    /// the first span at `Retracted`, and the retry — same client, same
    /// slot — mints a fresh id from the bumped publish sequence and runs
    /// the full lifecycle to `Observed`. Span ids never alias across
    /// retries by construction.
    #[test]
    fn dropped_then_retried_call_is_two_distinct_spans() {
        let cfg = RuntimeConfig {
            core: None,
            deadline: Some(Duration::from_millis(20)),
            trace_capacity: 4096,
            ..RuntimeConfig::new()
        };
        let rt = OffloadRuntime::try_start(Echo, cfg).expect("runtime starts");
        let mut c = rt.register_client();

        rt.fault_state().set_drop_every(1);
        let r = c
            .publish(7, CallKind::Single)
            .and_then(|()| c.try_collect(std::mem::take));
        assert!(
            matches!(r, Err(ServiceError::Deadline { .. })),
            "dropped response deadlines, got {r:?}"
        );
        rt.fault_state().set_drop_every(0);
        assert_eq!(
            c.publish(7, CallKind::Single)
                .and_then(|()| c.try_collect(std::mem::take)),
            Ok(14),
            "same slot recovers"
        );
        drop(c);

        let drain = rt.telemetry().drain_trace();
        rt.try_shutdown().expect("clean shutdown");
        let calls = reconstruct(&drain.events);
        assert_eq!(calls.len(), 2, "one dropped + one served: {calls:?}");
        assert_ne!(calls[0].id, calls[1].id, "retry minted a fresh span id");
        let retracted = calls
            .iter()
            .find(|s| s.at(SpanPhase::Retracted).is_some())
            .expect("the dropped request's span ends retracted");
        assert!(
            retracted.at(SpanPhase::Claimed).is_none(),
            "a dropped request is never claimed: {retracted:?}"
        );
        let observed = calls
            .iter()
            .find(|s| s.at(SpanPhase::Observed).is_some())
            .expect("the retried request's span ends observed");
        for s in [retracted, observed] {
            assert!(s.well_nested() && s.phase_monotonic(), "{s:?}");
            assert!(s.completed());
        }
    }

    /// A refill that met a wedged shard is **two spans** with its retry.
    /// The deadline retracts the never-claimed refill, whose span ends at
    /// `Retracted` without `Claimed`, and the allocation falls back
    /// inline; once the shard is let go, the retry on the same slot runs
    /// the full lifecycle to `Observed` under a fresh id.
    #[test]
    fn refill_retracted_then_retried_is_two_spans() {
        let ngm = NgmConfig::new()
            .with_placement(CorePlacement::Unpinned)
            .with_batch(2, 1)
            .with_deadline(Some(Duration::from_millis(10)))
            .with_trace_capacity(4096)
            .build()
            .expect("valid config");
        let l = Layout::from_size_align(64, 8).expect("valid");
        let mut h = ngm.handle();

        // Wedge the only shard so the refill is never claimed: the
        // deadline's retract is guaranteed to win the CAS.
        ngm.fault_state(0).set_wedged(true);
        let fell_back = h.alloc(l).expect("the allocation falls back");
        assert_eq!(ngm.fallback_heap().allocs(), 1, "the allocation fell back");
        ngm.fault_state(0).set_wedged(false);
        let served = h.alloc(l).expect("alloc");
        for p in [fell_back, served] {
            // SAFETY: blocks from this handle's tier, each freed once.
            unsafe { h.dealloc(p, l) };
        }
        drop(h);

        let drain = ngm.telemetry().drain_trace();
        let calls = reconstruct(&drain.events);
        let retracted = calls
            .iter()
            .find(|s| s.at(SpanPhase::Retracted).is_some())
            .expect("the deadlined refill's span ends retracted");
        assert!(
            retracted.at(SpanPhase::Claimed).is_none(),
            "a wedged (never-claimed) refill must not show Claimed: {retracted:?}"
        );
        let observed = calls
            .iter()
            .find(|s| s.at(SpanPhase::Observed).is_some())
            .expect("the retried allocation's span ends observed");
        assert_ne!(retracted.id, observed.id, "retry minted a fresh span id");
        for s in [retracted, observed] {
            assert!(s.well_nested() && s.phase_monotonic(), "{s:?}");
            assert!(s.completed());
        }

        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced());
    }

    /// Acceptance: a wedged shard's deadline is a failure event naming
    /// it, `/blackbox` renders that event with the wedged shard's trace
    /// tail up to it, and the allocation itself still succeeds by
    /// rerouting.
    #[test]
    fn wedged_shard_records_a_failure_event() {
        // Per-call handshake: the warm-up leaves nothing stashed, so the
        // allocation under the wedge has to ask the wedged shard.
        let ngm = Arc::new(
            NgmConfig::new()
                .with_shards(2)
                .with_batch(1, 1)
                .with_placement(CorePlacement::Unpinned)
                .with_deadline(Some(Duration::from_millis(10)))
                .with_trace_capacity(4096)
                .build()
                .expect("valid config"),
        );
        let mut observer = ngm
            .serve_observer(ObserverConfig::new("127.0.0.1:0"))
            .expect("observer binds");
        let mut h = ngm.handle();
        let l = Layout::from_size_align(64, 8).expect("valid");
        let class = ngm_heap::size_to_class(64).expect("class exists");
        let victim = h.class_route(class);

        // Warm the victim so its trace ring holds span events.
        for _ in 0..16 {
            let p = h.alloc(l).expect("healthy alloc");
            // SAFETY: block just allocated, freed once.
            unsafe { h.dealloc(p, l) };
        }

        ngm.fault_state(victim).set_wedged(true);
        let p = h.alloc(l).expect("tier reroutes around the wedge");
        ngm.fault_state(victim).set_wedged(false);
        // SAFETY: live block from this handle's allocator.
        unsafe { h.dealloc(p, l) };
        drop(h);

        let failures = ngm.failures();
        assert_eq!(failures.len(), 1, "{failures:?}");
        let f = failures[0];
        assert_eq!(
            (FailureReason::from_code(f.a), f.b as usize),
            (Some(FailureReason::Deadline), victim)
        );

        let (status, body) = http_get(observer.addr(), "/blackbox").expect("blackbox reachable");
        assert_eq!(status, 200);
        assert!(
            body.starts_with(&format!(
                "{{\"failures\":[{{\"reason\":\"deadline\",\"shard\":{victim},\"tsc\":{},",
                f.tsc
            )),
            "/blackbox names the failure and the wedged shard: {body}"
        );
        assert!(
            body.contains("\"kind\":\"span\""),
            "the wedged shard's span events are in its trace tail: {body}"
        );

        observer.stop();
        let ngm = Arc::into_inner(ngm).expect("all clones dropped");
        let down = ngm.shutdown();
        assert!(down.clean(), "unwedged tier shuts down in order");
        assert_eq!(down.heap.live_blocks, 0, "nothing stranded");
    }
}
