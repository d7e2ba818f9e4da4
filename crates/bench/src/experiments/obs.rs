//! Live-observability experiment: what does watching the tier cost,
//! and does the flight recording keep up?
//!
//! The observer's claims are (a) every `/metrics` scrape under load
//! renders validator-clean exposition text, (b) the continuous flight
//! recording reads back every frame the recorder appended, and (c) the
//! whole apparatus — frame assembly, recorder append, endpoint render —
//! costs less than 1% of the cycles the tier spends serving synchronous
//! calls (the mean of `ngm_call_cycles` times `ngm_calls_total`).
//!
//! The experiment drives a client ramp (1 → 4 → 16 → 4 → 1 churning
//! threads) through a fixed four-shard tier with the observer's
//! recorder running, exactly as a Prometheus deployment would run it.
//! During each stage the driver curls `/metrics` like an external
//! scraper and validates every response. The observability tax is read
//! from the tier's own `ngm_obs_scrape_cycles_total` meter against the
//! merged calls counted times their mean timed round trip.

use std::sync::Arc;
use std::time::Duration;

use ngm_core::{CorePlacement, NgmConfig, ObserverConfig};
use ngm_telemetry::export::validate_exposition;
use ngm_telemetry::recorder::read_recording;
use ngm_telemetry::server::http_get;

use crate::live::{self, Load};
use crate::Scale;

/// Client counts per ramp stage: up, peak, and back down.
pub const STAGES: [usize; 5] = [1, 4, 16, 4, 1];
/// The observed tier's width.
pub const SHARDS: usize = 4;
/// The recorder's cadence.
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
    /// Frames read back from the flight recording.
    pub frames: usize,
    /// Frames the recorder appended over the run
    /// ([`ngm_core::Observer::frames_recorded`]).
    pub appended: u64,
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

/// Runs the observed ramp and reads the recording back; with `profile`
/// the ramp runs under the harness's PMU sessions and the report carries
/// their readings (`--hw`).
pub fn run(scale: Scale, profile: bool) -> ObsReport {
    let per_thread = 20_000usize * scale.0.max(1) as usize;
    let record_path = std::env::temp_dir().join(format!("ngm-obs-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&record_path);

    // The per-call handshake on purpose: every allocation is one
    // synchronous round trip, so the calls — the overhead denominator —
    // are the whole serving workload. (Tiers that amortize land in
    // `ngm_refill_cycles` and leave the call series empty.)
    let ngm = Arc::new(
        NgmConfig::new()
            .with_batch(1, 1)
            .with_shards(SHARDS)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(8192)
            .build()
            .expect("valid config"),
    );
    let mut observer = ngm
        .serve_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording(&record_path)
                .with_scrape_interval(SCRAPE_EVERY),
        )
        .expect("observer binds");
    let addr = observer.addr();
    let hw = profile.then(|| live::Sessions::open(&ngm));

    let mut stages = Vec::new();
    for &clients in &STAGES {
        let load = Load {
            clients,
            per_thread,
            live_cap: 64,
            size: live::class_sweep,
        };
        let (mut scrapes, mut scrape_failures) = (0usize, 0usize);
        live::drive(
            &ngm,
            load,
            hw.as_ref(),
            live::must_alloc,
            CURL_EVERY,
            || {
                scrapes += 1;
                scrape_failures += usize::from(!scrape_ok(addr));
            },
        );
        stages.push(ObsStageRow {
            clients,
            scrapes,
            scrape_failures,
        });
    }

    // Freeze the run: stop the observer (no more frames), then read back
    // what it recorded.
    observer.stop();
    let frames = read_recording(&record_path).expect("recording readable");
    let appended = observer.frames_recorded();

    let m = ngm.metrics();
    let obs_cycles = m.get_counter("ngm_obs_scrape_cycles_total").unwrap_or(0);
    // A count of calls comes from the counter; the histogram holds the
    // timed ones, which on this traced tier are all of them.
    let calls = m.get_counter("ngm_calls_total").unwrap_or(0);
    let call_cycles = m
        .get_histogram("ngm_call_cycles")
        .map_or(0, |h| (h.mean() * calls as f64) as u64);
    let overhead_pct = obs_cycles as f64 / call_cycles.max(1) as f64 * 100.0;

    let _ = std::fs::remove_file(&record_path);
    let pmu = hw.map(live::Sessions::report);
    let down = live::finish(ngm);
    ObsReport {
        stages,
        frames: frames.len(),
        appended,
        obs_cycles,
        call_cycles,
        overhead_pct,
        balanced: down.clean() && down.balanced(),
        pmu,
    }
}

impl ObsReport {
    /// Whether the recording is whole: every frame the recorder appended
    /// parses back, and there is at least one.
    pub fn every_frame_read_back(&self) -> bool {
        self.frames > 0 && self.appended == self.frames as u64
    }

    /// Whether every acceptance bar held: all scrapes valid, the
    /// recording whole, the tax under budget, and the books balanced.
    pub fn accepted(&self) -> bool {
        self.stages.iter().all(|s| s.scrape_failures == 0)
            && self.every_frame_read_back()
            && self.overhead_pct < OVERHEAD_BUDGET_PCT
            && self.balanced
    }

    /// Renders the stage table and the verdict lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Live observability — scrape validity, recording fidelity, and tax \
             ({SHARDS} shards)\n"
        );
        let _ = writeln!(out, "{:<8} {:>9} {:>9}", "clients", "scrapes", "invalid");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<8} {:>9} {:>9}",
                s.clients, s.scrapes, s.scrape_failures
            );
        }
        let _ = writeln!(
            out,
            "\nrecording: {} frame(s) appended, {} read back — every appended frame read back: {}",
            self.appended,
            self.frames,
            self.every_frame_read_back()
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
