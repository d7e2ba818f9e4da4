//! Live-observability experiment: what does watching the tier cost,
//! and can the flight recording be trusted?
//!
//! The tentpole claims of the observer (PR 8) are (a) every `/metrics`
//! scrape during an elastic ramp renders validator-clean exposition
//! text, (b) the continuous flight recording's shard-count timeline
//! matches the controller's `Scale` trace events *exactly* (frames are
//! assembled under the same mutex that stamps the events), and (c) the
//! whole apparatus — frame assembly, recorder append, endpoint render —
//! costs less than 1% of the cycles the tier spends serving
//! synchronous calls (`ngm_call_cycles`).
//!
//! The experiment reruns the elastic client ramp (1 → 4 → 16 → 4 → 1
//! churning threads) with the observer as the *only* controller ticker:
//! no driver-side `tick()` calls — the observer's ticker does that job,
//! exactly as a Prometheus deployment would. During each stage the
//! driver curls `/metrics` like an external scraper and validates every
//! response; those scrapes are pure reads, so the run must end with one
//! recorded frame per tick however often the driver curled. Afterwards it replays the recording offline: reconstruct
//! the serving-count timeline from the `Scale` events, walk the frames
//! in timestamp order, and require frame-vs-event agreement on every
//! single frame. The observability tax is read from the tier's own
//! `ngm_obs_scrape_cycles_total` meter against the merged
//! `ngm_call_cycles` sum.

use std::alloc::Layout;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ngm_core::{CorePlacement, NgmConfig, ObserverConfig};
use ngm_simalloc::NgmModel;
use ngm_telemetry::export::validate_exposition;
use ngm_telemetry::recorder::{read_recording, RecordFrame};
use ngm_telemetry::server::http_get;
use ngm_telemetry::trace::{TraceEvent, TraceEventKind};

use crate::Scale;

/// Client counts per ramp stage (same ramp as `repro elastic`).
pub const STAGES: [usize; 5] = [1, 4, 16, 4, 1];
/// The elastic tier's resident floor.
pub const ELASTIC_MIN: usize = 1;
/// The elastic tier's ceiling.
pub const ELASTIC_MAX: usize = 8;
/// The observer's tick cadence.
const SCRAPE_EVERY: Duration = Duration::from_millis(5);
/// How often the driver curls `/metrics` during a stage, playing the
/// external Prometheus scraper.
const CURL_EVERY: Duration = Duration::from_millis(25);
/// The acceptance bar: observability cycles as a percentage of the
/// cycles spent inside synchronous calls.
pub const OVERHEAD_BUDGET_PCT: f64 = 1.0;

/// One ramp stage as seen through the observer.
#[derive(Debug, Clone)]
pub struct ObsStageRow {
    /// Churning client threads this stage.
    pub clients: usize,
    /// Width [`NgmModel::predicted_shards`] says the controller converges to.
    pub predicted_shards: usize,
    /// Serving shards when the stage's churn ended.
    pub live_serving: usize,
    /// `/metrics` scrapes issued by the driver during the stage.
    pub scrapes: usize,
    /// Scrapes that failed transport or the exposition validator.
    pub scrape_failures: usize,
}

/// The full observer report.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// One row per ramp stage, in ramp order.
    pub stages: Vec<ObsStageRow>,
    /// Frames in the flight recording.
    pub frames: usize,
    /// [`ngm_core::Ngm::tick`]s over the run. Only the observer ticks
    /// and it records one frame per tick, so this equals `frames` unless
    /// something else (a scrape) moved the clock.
    pub ticks: u64,
    /// `Scale` trace events the controller emitted over the run.
    pub scale_events: usize,
    /// Whether every frame's serving count matched the count
    /// reconstructed from the `Scale` events at that frame's timestamp.
    pub timeline_matches: bool,
    /// First mismatch, when there is one (diagnostic).
    pub timeline_detail: Option<String>,
    /// Cycles the tier spent on observability (scrapes + recorder +
    /// endpoint renders).
    pub obs_cycles: u64,
    /// Cycles the tier spent inside synchronous calls.
    pub call_cycles: u64,
    /// `obs_cycles / call_cycles` as a percentage.
    pub overhead_pct: f64,
    /// Whether every shard balanced `allocs == frees` at shutdown.
    pub balanced: bool,
}

/// Churns `per_thread` alloc/free rounds on `clients` threads. Unlike
/// the `elastic` experiment there is no driver-side ticking: the
/// observer's ticker is the only tick source.
fn churn_stage(
    ngm: &Arc<ngm_core::Ngm>,
    clients: usize,
    per_thread: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    let joins: Vec<_> = (0..clients)
        .map(|t| {
            let ngm = Arc::clone(ngm);
            std::thread::spawn(move || {
                let mut h = ngm.handle();
                let mut live: Vec<(std::ptr::NonNull<u8>, Layout)> = Vec::new();
                for i in 0..per_thread {
                    let size = 16 * (1 + (i + t) % 8);
                    let l = Layout::from_size_align(size, 8).expect("valid");
                    live.push((h.alloc(l).expect("alloc"), l));
                    if live.len() > 64 {
                        let (p, l) = live.swap_remove((i * 31) % live.len());
                        // SAFETY: live block from this allocator.
                        unsafe { h.dealloc(p, l) };
                    }
                }
                for (p, l) in live {
                    // SAFETY: live block from this allocator.
                    unsafe { h.dealloc(p, l) };
                }
            })
        })
        .collect();
    joins
}

/// Plays the external scraper against `/metrics` until every worker in
/// `joins` finishes: returns (scrapes, failures).
fn scrape_until_done(
    addr: std::net::SocketAddr,
    joins: &[std::thread::JoinHandle<()>],
) -> (usize, usize) {
    let mut scrapes = 0usize;
    let mut failures = 0usize;
    while !joins.iter().all(std::thread::JoinHandle::is_finished) {
        match http_get(addr, "/metrics") {
            Ok((200, body)) => {
                if validate_exposition(&body).is_err() {
                    failures += 1;
                }
            }
            Ok(_) | Err(_) => failures += 1,
        }
        scrapes += 1;
        std::thread::sleep(CURL_EVERY);
    }
    (scrapes, failures)
}

/// Waits (idle) until the observer-driven controller stops moving the
/// serving count, bounded.
fn settle(ngm: &Arc<ngm_core::Ngm>) -> usize {
    let mut serving = ngm.serving_shards().len();
    let mut stable = 0u32;
    for _ in 0..400 {
        std::thread::sleep(SCRAPE_EVERY);
        let now = ngm.serving_shards().len();
        if now == serving {
            stable += 1;
            if stable > 24 {
                break;
            }
        } else {
            serving = now;
            stable = 0;
        }
    }
    serving
}

/// The serving-count delta a `Scale` event code implies: spawn and
/// drain-abort add a serving shard, drain-begun removes one, retired
/// changes nothing (the shard already left serving at drain-begun).
fn event_delta(code: u64) -> i64 {
    match code {
        1 | 4 => 1,
        2 => -1,
        _ => 0,
    }
}

/// Replays `frames` against the `Scale` events: reconstructs the
/// serving count at each frame's timestamp and requires equality.
/// Returns (matches, first mismatch).
pub fn cross_check_timeline(
    frames: &[RecordFrame],
    events: &[TraceEvent],
) -> (bool, Option<String>) {
    let mut scales: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Scale)
        .collect();
    scales.sort_by_key(|e| e.tsc);
    let mut expected = ELASTIC_MIN as i64;
    let mut next = 0usize;
    for (i, f) in frames.iter().enumerate() {
        while next < scales.len() && scales[next].tsc <= f.tsc {
            expected += event_delta(scales[next].a);
            next += 1;
        }
        if f.serving as i64 != expected {
            return (
                false,
                Some(format!(
                    "frame {i} (tsc {}): recorded serving={} but {} Scale event(s) \
                     by then imply {expected}",
                    f.tsc, f.serving, next
                )),
            );
        }
    }
    (true, None)
}

/// Runs the observed ramp and the offline replay.
pub fn run(scale: Scale) -> ObsReport {
    let per_thread = 20_000usize * scale.0.max(1) as usize;
    let record_path = std::env::temp_dir().join(format!("ngm-obs-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&record_path);

    // The per-call handshake on purpose: every allocation is one stamped
    // synchronous round trip, so the `ngm_call_cycles` histogram — the
    // overhead denominator — reflects the whole serving workload. (Tiers
    // that amortize land in `ngm_refill_cycles` and leave the call series
    // empty.)
    let ngm = Arc::new(
        NgmConfig::new()
            .with_batch(1, 1)
            .with_shards(ELASTIC_MIN)
            .elastic(ELASTIC_MIN, ELASTIC_MAX)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(8192)
            .with_observer(
                ObserverConfig::new("127.0.0.1:0")
                    .with_recording(&record_path)
                    .with_scrape_interval(SCRAPE_EVERY),
            )
            .build()
            .expect("valid config"),
    );
    let observer = ngm
        .start_observer()
        .expect("observer binds")
        .expect("config carries an observer");
    let addr = observer.addr();

    let mut stages = Vec::new();
    for &clients in &STAGES {
        let joins = churn_stage(&ngm, clients, per_thread);
        let (scrapes, scrape_failures) = scrape_until_done(addr, &joins);
        for j in joins {
            j.join().expect("worker");
        }
        stages.push(ObsStageRow {
            clients,
            predicted_shards: NgmModel::predicted_shards(clients, ELASTIC_MIN, ELASTIC_MAX),
            live_serving: ngm.serving_shards().len(),
            scrapes,
            scrape_failures,
        });
    }
    settle(&ngm);

    // Freeze the run: stop the observer (no more ticks, no more
    // frames), then read back what it recorded and what the controller
    // logged, and replay one against the other.
    observer.stop();
    let frames = read_recording(&record_path).expect("recording readable");
    let ticks = ngm.ticks();
    let drain = ngm.telemetry().drain_trace();
    let scale_events = drain
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Scale)
        .count();
    let (timeline_matches, timeline_detail) = cross_check_timeline(&frames, &drain.events);

    let m = ngm.metrics();
    let obs_cycles = m.get_counter("ngm_obs_scrape_cycles_total").unwrap_or(0);
    let call_cycles = m
        .get_histogram("ngm_call_cycles")
        .map_or(0, ngm_telemetry::hist::HistogramSnapshot::sum);
    let overhead_pct = obs_cycles as f64 / call_cycles.max(1) as f64 * 100.0;

    let _ = std::fs::remove_file(&record_path);
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    ObsReport {
        stages,
        frames: frames.len(),
        ticks,
        scale_events,
        timeline_matches,
        timeline_detail,
        obs_cycles,
        call_cycles,
        overhead_pct,
        balanced: down.clean() && down.balanced(),
    }
}

impl ObsReport {
    /// Whether the observer's ticker was the run's only clock: every
    /// tick recorded exactly one frame and the driver's curls added none.
    pub fn one_frame_per_tick(&self) -> bool {
        self.ticks == self.frames as u64
    }

    /// Whether every acceptance bar held: all scrapes valid, one frame
    /// per tick, the timeline replay exact, and the tax under budget.
    pub fn accepted(&self) -> bool {
        self.stages.iter().all(|s| s.scrape_failures == 0)
            && self.one_frame_per_tick()
            && self.timeline_matches
            && self.overhead_pct < OVERHEAD_BUDGET_PCT
            && self.balanced
    }

    /// Renders the stage table and the verdict lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Live observability — scrape validity, recording fidelity, and tax\n"
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>8} {:>9} {:>9}",
            "clients", "predicted", "serving", "scrapes", "invalid"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>8} {:>9} {:>9}",
                s.clients, s.predicted_shards, s.live_serving, s.scrapes, s.scrape_failures
            );
        }
        let _ = writeln!(
            out,
            "\nflight recording: {} frame(s) vs {} Scale event(s) — timeline exact: {}",
            self.frames, self.scale_events, self.timeline_matches
        );
        if let Some(detail) = &self.timeline_detail {
            let _ = writeln!(out, "  first mismatch: {detail}");
        }
        let _ = writeln!(
            out,
            "clock: {} tick(s) vs {} frame(s) — one frame per tick: {}",
            self.ticks,
            self.frames,
            self.one_frame_per_tick()
        );
        let _ = writeln!(
            out,
            "observability tax: {} obs cycles / {} call cycles = {:.4}% (budget {OVERHEAD_BUDGET_PCT}%)",
            self.obs_cycles, self.call_cycles, self.overhead_pct
        );
        let _ = writeln!(out, "balanced at shutdown: {}", self.balanced);
        let _ = writeln!(out, "accepted: {}", self.accepted());
        out
    }
}

/// The `--hw` variant: one observed 16-client stage with PMU profiling
/// armed, reporting the hardware counters next to the same scrape
/// validity and overhead readings.
pub fn run_hw(scale: Scale) -> String {
    use std::fmt::Write as _;
    let per_thread = 5_000usize * scale.0.max(1) as usize;
    let record_path = std::env::temp_dir().join(format!("ngm-obs-hw-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&record_path);
    let mut out = String::new();
    let _ = writeln!(out, "## Live observability — hardware counters\n");

    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(ELASTIC_MIN)
            .elastic(ELASTIC_MIN, ELASTIC_MAX)
            .with_placement(CorePlacement::Unpinned)
            .with_profile(true)
            .with_trace_capacity(8192)
            .build()
            .expect("valid config"),
    );
    let observer = ngm
        .serve_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording(&record_path)
                .with_scrape_interval(SCRAPE_EVERY),
        )
        .expect("observer binds");
    let addr = observer.addr();
    let start = Instant::now();
    let joins = churn_stage(&ngm, 16, per_thread);
    let (scrapes, failures) = scrape_until_done(addr, &joins);
    for j in joins {
        j.join().expect("worker");
    }
    let secs = start.elapsed().as_secs_f64();
    observer.stop();
    let frames = read_recording(&record_path).map_or(0, |f| f.len());
    let report = ngm.pmu_report();
    let m = ngm.metrics();
    let obs_cycles = m.get_counter("ngm_obs_scrape_cycles_total").unwrap_or(0);
    let _ = std::fs::remove_file(&record_path);
    let ngm = Arc::into_inner(ngm).expect("observer released its references");
    let down = ngm.shutdown();
    let _ = writeln!(
        out,
        "### 16 clients for {secs:.2}s — {scrapes} scrape(s), {failures} invalid, \
         {frames} frame(s), {obs_cycles} obs cycles — balanced: {}",
        down.clean() && down.balanced()
    );
    match report {
        Some(r) => {
            let _ = writeln!(out, "{}", r.render());
        }
        None => {
            let _ = writeln!(out, "(no PMU readings deposited — perf events unavailable)");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_event(tsc: u64, code: u64, shard: u64) -> TraceEvent {
        TraceEvent {
            tsc,
            thread: 0,
            kind: TraceEventKind::Scale,
            a: code,
            b: shard,
        }
    }

    fn frame(tsc: u64, serving: u64) -> RecordFrame {
        RecordFrame {
            tsc,
            serving,
            ..RecordFrame::default()
        }
    }

    #[test]
    fn timeline_accepts_matching_frames() {
        let events = [
            scale_event(100, 1, 1), // spawn: 1 -> 2
            scale_event(200, 2, 1), // drain begun: 2 -> 1
            scale_event(300, 3, 1), // retired: no serving change
        ];
        let frames = [frame(50, 1), frame(150, 2), frame(250, 1), frame(350, 1)];
        let (ok, detail) = cross_check_timeline(&frames, &events);
        assert!(ok, "{detail:?}");
    }

    #[test]
    fn timeline_rejects_a_torn_frame() {
        let events = [scale_event(100, 1, 1)];
        let frames = [frame(150, 1)]; // should read 2 after the spawn
        let (ok, detail) = cross_check_timeline(&frames, &events);
        assert!(!ok);
        assert!(detail.expect("mismatch detail").contains("frame 0"));
    }

    #[test]
    fn timeline_counts_drain_abort_back_up() {
        let events = [
            scale_event(100, 1, 1), // spawn: 1 -> 2
            scale_event(200, 2, 1), // drain begun: 2 -> 1
            scale_event(300, 4, 1), // drain aborted: 1 -> 2
        ];
        let frames = [frame(150, 2), frame(250, 1), frame(350, 2)];
        let (ok, detail) = cross_check_timeline(&frames, &events);
        assert!(ok, "{detail:?}");
    }
}
