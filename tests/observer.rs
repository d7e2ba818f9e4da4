//! Live-observer contract tests: the HTTP endpoints against a running
//! tier, the flight recording against real traffic, and readiness
//! against shard health.
//!
//! The endpoint/parsing mechanics (partial requests, oversized request
//! lines, RST-free teardown) are unit-tested in
//! `ngm_telemetry::server`; this suite pins the *wiring*: `/metrics`
//! renders validator-clean exposition under concurrent scrapes while
//! traffic runs, `/readyz` flips as shards wedge, `/healthz` and the
//! JSON endpoints answer sensibly, unknown paths 404, and a configured
//! recording replays into parseable frames whose shape matches the
//! tier.

use std::alloc::Layout;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ngm_core::{CorePlacement, NgmConfig, ObserverConfig};
use ngm_telemetry::export::validate_exposition;
use ngm_telemetry::recorder::read_recording;
use ngm_telemetry::server::http_get;

fn churn(h: &mut ngm_core::NgmHandle, rounds: usize) {
    for i in 0..rounds {
        let l = Layout::from_size_align(16 + (i % 8) * 16, 8).expect("valid");
        let p = h.alloc(l).expect("alloc");
        // SAFETY: block just allocated, freed once.
        unsafe { h.dealloc(p, l) };
    }
}

/// `/metrics` passes the shared exposition validator, `/healthz` is 200,
/// the JSON endpoints return their envelopes, and an unknown path 404s.
#[test]
fn endpoints_answer_on_a_live_tier() {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(2)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(4096)
            .build()
            .expect("valid config"),
    );
    let mut obs = ngm
        .serve_observer(ObserverConfig::new("127.0.0.1:0"))
        .expect("observer binds");
    let addr = obs.addr();

    let mut h = ngm.handle();
    churn(&mut h, 256);
    drop(h);

    let (status, body) = http_get(addr, "/metrics").expect("metrics reachable");
    assert_eq!(status, 200);
    validate_exposition(&body).expect("live /metrics is valid exposition");
    assert!(body.contains("ngm_up 1"), "liveness convention exported");
    assert!(body.contains("ngm_build_info{"), "build info exported");

    let (status, body) = http_get(addr, "/healthz").expect("healthz reachable");
    assert_eq!((status, body.trim()), (200, "ok"));

    let (status, body) = http_get(addr, "/spans").expect("spans reachable");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"spans\":["), "spans envelope: {body}");
    assert!(body.contains("\"phases\":["), "spans carry phases: {body}");

    let (status, body) = http_get(addr, "/blackbox").expect("blackbox reachable");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("{\"failures\":["),
        "blackbox envelope: {body}"
    );

    for path in ["/heat", "/nonsense"] {
        let (status, _) = http_get(addr, path).expect("404 still answers");
        assert_eq!(status, 404, "{path}");
    }

    obs.stop();
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// `/readyz` is 200 on a healthy tier and flips to 503 (degraded) when a
/// serving shard's thread dies under it. The every-shard-down NotReady
/// edge is pinned by the pure `derive_readiness` unit test.
#[test]
fn readyz_degrades_when_a_serving_shard_wedges() {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(2)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );
    let mut obs = ngm
        .serve_observer(ObserverConfig::new("127.0.0.1:0"))
        .expect("observer binds");
    let addr = obs.addr();

    let (status, body) = http_get(addr, "/readyz").expect("readyz reachable");
    assert_eq!((status, body.trim()), (200, "ready"));

    // Kill shard 1's thread out from under the tier: readiness must
    // report it down.
    ngm.stop_shard(1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !ngm.shard_finished(1) {
        assert!(Instant::now() < deadline, "shard thread never exited");
        std::thread::yield_now();
    }
    let (status, body) = http_get(addr, "/readyz").expect("readyz reachable");
    assert_eq!(status, 503, "wedged serving shard degrades: {body}");
    assert!(body.contains("degraded") && body.contains('1'), "{body}");

    obs.stop();
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    assert!(down.clean(), "stop_shard is an orderly exit");
}

/// Once the tier is dropped, every endpoint answers 503 instead of
/// hanging or crashing — the observer holds only a weak reference.
#[test]
fn endpoints_answer_503_after_the_tier_is_gone() {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );
    let mut obs = ngm
        .serve_observer(ObserverConfig::new("127.0.0.1:0"))
        .expect("observer binds");
    let addr = obs.addr();
    let ngm = Arc::into_inner(ngm).expect("only our reference");
    drop(ngm.shutdown());

    for path in ["/metrics", "/spans", "/blackbox", "/healthz", "/readyz"] {
        let (status, _) = http_get(addr, path).expect("endpoint still answers");
        assert_eq!(status, 503, "{path} after tier drop");
    }
    obs.stop();
}

/// Polls `done` until it holds, failing the test after ten seconds.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A recording configured in the [`ObserverConfig`] handed to
/// `serve_observer` lands on disk as parseable frames whose shape
/// matches the tier. The recording serves as the
/// window: every frame carries every shard's cumulative counters, so
/// they never fall from frame to frame, and a frame taken after the
/// traffic stopped accounts for every call.
#[test]
fn configured_observer_records_parseable_frames() {
    let path = std::env::temp_dir().join(format!("ngm-obs-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // The per-call handshake: every allocation is exactly one call.
    let ngm = Arc::new(
        NgmConfig::new()
            .with_batch(1, 1)
            .with_shards(2)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );
    let mut obs = ngm
        .serve_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording(&path)
                .with_scrape_interval(Duration::from_millis(2)),
        )
        .expect("observer binds");

    let mut h = ngm.handle();
    let mut calls = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        churn(&mut h, 64);
        calls += 64;
        if obs.frames_recorded() >= 5 || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(h);
    // A service counts a call after answering it. Once the count is in,
    // two more appends guarantee a frame sampled after it.
    wait_until("the last call to be counted", || {
        ngm.runtime_stats().calls_served == calls
    });
    let seen = obs.frames_recorded();
    wait_until("two more frames", || obs.frames_recorded() >= seen + 2);
    obs.stop();

    let frames = read_recording(&path).expect("recording readable");
    assert!(frames.len() >= 5, "frames recorded: {}", frames.len());
    assert_eq!(
        frames.len() as u64,
        obs.frames_recorded(),
        "every appended frame reads back"
    );
    for f in &frames {
        assert_eq!(f.serving, 2, "both shards serve throughout");
        assert_eq!(f.states, "SS", "one glyph per shard");
        assert_eq!(f.shards.len(), 2, "every frame carries every shard");
    }
    for w in frames.windows(2) {
        assert!(w[0].tsc <= w[1].tsc, "frames are time-ordered");
        for (then, now) in w[0].shards.iter().zip(&w[1].shards) {
            assert!(now.calls >= then.calls, "shard {} calls fell", now.shard);
        }
    }
    let last = frames.last().expect("nonempty");
    assert_eq!(
        last.shards.iter().map(|s| s.calls).sum::<u64>(),
        calls,
        "the newest frame accounts for every call"
    );
    assert!(last.obs_cycles > 0, "observability cycles are metered");

    let _ = std::fs::remove_file(&path);
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// `/metrics` reads per-shard counters live, not from the recording: a
/// tier whose recorder has never appended a frame exports exactly the
/// series it exports once frames are being recorded, one sample per
/// shard per `ngm_shard_*` family, validator-clean both times.
#[test]
fn a_never_ticked_tier_exports_the_same_series_as_a_ticked_one() {
    fn series(body: &str) -> Vec<&str> {
        body.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| l.rsplit_once(' ').expect("sample line").0)
            .collect()
    }
    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(3)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );

    // No recording configured: no recorder thread, no frame ever.
    let mut obs = ngm
        .serve_observer(ObserverConfig::new("127.0.0.1:0"))
        .expect("observer binds");
    let (status, unticked) = http_get(obs.addr(), "/metrics").expect("metrics reachable");
    assert_eq!(status, 200);
    validate_exposition(&unticked).expect("never-recorded /metrics is valid exposition");
    assert_eq!(obs.frames_recorded(), 0, "scraping records nothing");
    obs.stop();
    for family in [
        "ngm_shard_ring_occupancy",
        "ngm_shard_calls_served",
        "ngm_shard_deadlines",
        "ngm_shard_post_full_retries",
    ] {
        for shard in 0..3 {
            let sample = format!("{family}{{shard=\"{shard}\"}} ");
            assert_eq!(
                unticked.matches(&sample).count(),
                1,
                "{sample} in:\n{unticked}"
            );
        }
    }

    let path = std::env::temp_dir().join(format!("ngm-ticked-test-{}.jsonl", std::process::id()));
    let mut obs = ngm
        .serve_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording(&path)
                .with_scrape_interval(Duration::from_millis(2)),
        )
        .expect("observer binds");
    wait_until("two recorded frames", || obs.frames_recorded() >= 2);
    let (status, ticked) = http_get(obs.addr(), "/metrics").expect("metrics reachable");
    assert_eq!(status, 200);
    validate_exposition(&ticked).expect("recorded /metrics is valid exposition");
    assert_eq!(series(&unticked), series(&ticked));

    obs.stop();
    let _ = std::fs::remove_file(&path);
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// Concurrent `/metrics` scrapes against a four-shard tier under real
/// churn while the observer records: every response must pass the
/// exposition validator — a scrape must never observe a torn snapshot.
#[test]
fn concurrent_scrapes_stay_valid_under_churn() {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(4)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(4096)
            .build()
            .expect("valid config"),
    );
    let path = std::env::temp_dir().join(format!("ngm-scrape-test-{}.jsonl", std::process::id()));
    let mut obs = ngm
        .serve_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording(&path)
                .with_scrape_interval(Duration::from_millis(2)),
        )
        .expect("observer binds");
    let addr = obs.addr();

    std::thread::scope(|s| {
        // Churn threads give the scrapes and the recorder something to
        // sample.
        for _ in 0..2 {
            let ngm = Arc::clone(&ngm);
            s.spawn(move || {
                let mut h = ngm.handle();
                churn(&mut h, 4_000);
            });
        }
        // Scrape threads hammer /metrics while the tier moves.
        for _ in 0..3 {
            s.spawn(move || {
                for _ in 0..10 {
                    let (status, body) = http_get(addr, "/metrics").expect("scrape");
                    assert_eq!(status, 200);
                    validate_exposition(&body).expect("mid-churn scrape stays valid");
                }
            });
        }
    });

    obs.stop();
    let _ = std::fs::remove_file(&path);
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}
