//! Observability contract tests: the span log, phase coverage, and the
//! Prometheus exposition format of the live metrics endpoint.
//!
//! Three layers are pinned here. (1) **Spans**: a live tier's span log
//! holds one whole, phase-monotonic span per trip, written by the side
//! that ended it. (2) **Coverage**: the claim and observe phases
//! partition the synchronous round trip, so their sums must land within
//! 10% of `ngm_call_cycles`' sum (the acceptance bar; one record feeds
//! all three, so the identity is exact by construction). (3)
//! **Exposition**: `to_prometheus_text()` on a live snapshot is valid
//! text format 0.0.4 — every family announced by HELP+TYPE, every series
//! unique, every value numeric, and every per-shard family one sample
//! per shard.
//!
//! The `faultinject` module adds the failure-path contracts: a
//! dropped-then-retried request is *two* spans (a retry is a new publish
//! sequence), and a wedged shard's deadline is one failure event, which
//! `/blackbox` renders with the shard's trace tail up to it.

use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::Arc;

use ngm_core::{CorePlacement, NgmConfig};
use ngm_offload::{PHASES, PHASE_NAMES};
use ngm_telemetry::span::SpanPhase;

/// A live single-shard tier's span log: every trip it served is one
/// whole span, written once by the service after its client collected
/// the response (a post is one `Post` event, not a span).
#[test]
fn live_span_log_holds_one_observed_span_per_trip() {
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
    let telemetry = Arc::clone(ngm.telemetry());
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());

    // Read once the tier is down: the service books a trip once its
    // client has collected it, at the latest when the loop ends.
    let spans = telemetry.spans(usize::MAX);
    assert!(!spans.is_empty(), "round trips produce call spans");
    assert_eq!(
        spans.len() as u64,
        down.runtime.calls_served,
        "one per trip"
    );
    let mut ids = HashSet::new();
    for s in &spans {
        assert!(ids.insert((s.thread, s.seq)), "spans are named once: {s:?}");
        // Nothing is retracted or abandoned on a healthy tier.
        assert_eq!(s.end, SpanPhase::Observed, "{s:?}");
        let phases: Vec<_> = s.phases().collect();
        assert_eq!(phases.len(), 4, "full lifecycle: {s:?}");
        assert!(phases.windows(2).all(|w| w[0].1 <= w[1].1), "{s:?}");
    }
}

/// Acceptance smoke: the claim and observe sums partition
/// `ngm_call_cycles` within 10% on a live tier (exact by construction,
/// once every trip is booked; the slack covers a live read that lands
/// while the service books its last trip).
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
    // Claim and observe partition the round trip; serve lies inside
    // observe.
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

    /// A dropped-then-retried request is **two spans**: the client logs
    /// the first, retracted unclaimed, and the service logs the retry —
    /// same client, same slot, the next publish sequence — once it has
    /// run the full lifecycle to `Observed`.
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

        let telemetry = Arc::clone(rt.telemetry());
        rt.try_shutdown().expect("clean shutdown");
        let calls = telemetry.spans(usize::MAX);
        assert_eq!(calls.len(), 2, "one dropped + one served: {calls:?}");
        let [retracted, observed] = [calls[0], calls[1]];
        assert_eq!(
            (retracted.end, retracted.served),
            (SpanPhase::Retracted, None),
            "a dropped request is never claimed: {retracted:?}"
        );
        assert_eq!(observed.end, SpanPhase::Observed, "{observed:?}");
        assert!(observed.served.is_some(), "{observed:?}");
        assert_eq!(observed.seq, retracted.seq + 1, "the retry is a new span");
        assert_eq!(observed.thread, retracted.thread, "same client");
    }

    /// A refill that met a wedged shard is **two spans** with its retry.
    /// The deadline retracts the never-claimed refill, whose span ends at
    /// `Retracted` without a claim, and the allocation falls back inline;
    /// once the shard is let go, the retry on the same slot runs the full
    /// lifecycle to `Observed` under the next publish sequence.
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

        let telemetry = Arc::clone(ngm.telemetry());
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced());
        let calls = telemetry.spans(usize::MAX);
        let retracted = calls
            .iter()
            .find(|s| s.end == SpanPhase::Retracted)
            .expect("the deadlined refill's span ends retracted");
        assert!(
            retracted.batched && retracted.served.is_none(),
            "a wedged (never-claimed) refill shows no claim: {retracted:?}"
        );
        let observed = calls
            .iter()
            .find(|s| s.end == SpanPhase::Observed && s.seq > retracted.seq)
            .expect("the retried allocation's span ends observed");
        assert_eq!(observed.thread, retracted.thread, "same slot: {observed:?}");
        assert!(observed.served.is_some(), "{observed:?}");
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
