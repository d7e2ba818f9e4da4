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

use std::sync::Arc;
use std::time::Duration;

use ngm_core::{CorePlacement, NgmConfig, ObserverConfig};
use ngm_simalloc::NgmModel;
use ngm_telemetry::export::validate_exposition;
use ngm_telemetry::recorder::{read_recording, RecordFrame};
use ngm_telemetry::server::http_get;
use ngm_telemetry::trace::{TraceEvent, TraceEventKind};

use crate::live::{self, Load};
use crate::Scale;

/// The ramp and the tier bounds are `repro elastic`'s.
use super::elastic::{ELASTIC_MAX, ELASTIC_MIN, STAGES};
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
    /// The observed tier's PMU report, when the run was profiled.
    pub pmu: Option<ngm_pmu::PmuReport>,
}

/// One `/metrics` curl, as an external Prometheus scraper would issue
/// it; whether the response was a 200 carrying validator-clean text.
fn scrape_ok(addr: std::net::SocketAddr) -> bool {
    matches!(http_get(addr, "/metrics"), Ok((200, body)) if validate_exposition(&body).is_ok())
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

/// Runs the observed ramp and the offline replay; with `profile` the
/// tier arms PMU sessions and the report carries their readings (`--hw`).
pub fn run(scale: Scale, profile: bool) -> ObsReport {
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
            .with_profile(profile)
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

    // No driver-side ticking: the observer's ticker is the only tick
    // source, and the driver only curls.
    let mut stages = Vec::new();
    for &clients in &STAGES {
        let load = Load {
            clients,
            per_thread,
            live_cap: 64,
            size: live::class_sweep,
        };
        let (mut scrapes, mut scrape_failures) = (0usize, 0usize);
        live::drive(&ngm, load, live::must_alloc, CURL_EVERY, || {
            scrapes += 1;
            scrape_failures += usize::from(!scrape_ok(addr));
        });
        stages.push(ObsStageRow {
            clients,
            predicted_shards: NgmModel::predicted_shards(clients, ELASTIC_MIN, ELASTIC_MAX),
            live_serving: ngm.serving_shards().len(),
            scrapes,
            scrape_failures,
        });
    }
    live::settle(&ngm, SCRAPE_EVERY, || ());

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
    let down = live::finish(ngm);
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
        pmu: down.pmu,
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
        out.push_str(&live::render_pmu(
            "### Hardware counters of the ramp above",
            self.pmu.as_ref(),
        ));
        out
    }
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
