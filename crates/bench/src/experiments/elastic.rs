//! Elastic tier experiment: does the number of rooms track demand?
//!
//! The paper dedicates a fixed set of service cores; the elastic
//! controller (PR 7) spawns and retires shards from live heat telemetry
//! instead. This experiment drives the live runtime through a client
//! ramp (1 → 4 → 16 → 4 → 1 churning threads), ticking the tier
//! ([`ngm_core::Ngm::tick`]) on a fixed cadence the whole way, and records the serving
//! shard count per stage — the tier must widen under the 16-client
//! stage and shrink back down the far side, with every per-shard
//! `allocs == frees` balance exact at shutdown (scale events move only
//! the alloc routes; frees travel by address).
//!
//! The simulated half sizes each stage with
//! [`NgmModel::predicted_shards`] — the width the controller should
//! converge to — so the table separates "the controller converged to
//! the wrong width" from "the width itself is wrong". The throughput
//! check reruns the 16-client stage against a *fixed* 4-shard tier: the
//! elastic tier, free to grow past four rooms, should beat it.

use ngm_sim::Machine;
use ngm_simalloc::ngm::{NgmModel, Protocol};
use ngm_simalloc::run_warm;
use ngm_workloads::churn::{self, ChurnParams};

use crate::live::{self, Load};
use crate::Scale;

/// Client counts per ramp stage: up, peak, and back down.
pub const STAGES: [usize; 5] = [1, 4, 16, 4, 1];
/// The elastic tier's resident floor.
pub const ELASTIC_MIN: usize = 1;
/// The elastic tier's ceiling.
pub const ELASTIC_MAX: usize = 8;
/// Width of the fixed tier the 16-client throughput check runs against.
pub const FIXED_SHARDS: usize = 4;

/// One ramp stage as observed on the live runtime.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Churning client threads this stage.
    pub clients: usize,
    /// Width [`NgmModel::predicted_shards`] says the controller converges to.
    pub predicted_shards: usize,
    /// Simulated allocations per million wall cycles at that width.
    pub sim_allocs_per_mcycle: f64,
    /// Serving shards when the stage's churn ended (the live width the
    /// controller actually reached under this load).
    pub live_serving: usize,
    /// Highest serving count observed during the stage.
    pub peak_serving: usize,
    /// Live allocations per second across the stage's clients.
    pub allocs_per_sec: f64,
}

/// The full ramp report.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// One row per ramp stage, in ramp order.
    pub stages: Vec<StageRow>,
    /// Serving shards after the post-ramp idle settle (the controller
    /// should have drained back to the resident floor).
    pub settled_serving: usize,
    /// Scale-up / scale-down event totals over the whole ramp.
    pub scale_events: (u64, u64),
    /// Whether every shard balanced `allocs == frees` at shutdown.
    pub balanced: bool,
    /// 16-client throughput on the warm elastic tier (measured burst).
    pub elastic_peak_allocs_per_sec: f64,
    /// 16-client throughput on the fixed 4-shard tier, same churn.
    pub fixed_allocs_per_sec: f64,
    /// The elastic tier's PMU report over the whole ramp — one service
    /// column per slot that ever ran, every epoch of it — when the run
    /// was profiled.
    pub pmu: Option<ngm_pmu::PmuReport>,
}

/// How often the driver calls [`ngm_core::Ngm::tick`] while the churn
/// runs — the heat windows' time-base and the controller's cadence.
const TICK_EVERY: std::time::Duration = std::time::Duration::from_millis(2);

/// The sim churn shape for one stage (mirrors the live worker loop).
fn sim_workload(clients: usize, scale: Scale) -> Vec<ngm_workloads::Event> {
    churn::collect(&ChurnParams {
        threads: clients as u8,
        total_allocs: 2_000 * scale.0.max(1) * clients as u32,
        live_cap: 128,
        size_range: (16, 2048),
        free_percent: 45,
        touch_percent: 5,
        compute_per_step: 4,
        seed: 0xe1a5,
    })
}

/// One ramp stage: `clients` threads churn `per_thread` allocations
/// each while the driver ticks the tier every [`TICK_EVERY`]. Returns
/// (seconds, peak serving count during the stage).
fn churn_stage(ngm: &ngm_core::Ngm, clients: usize, per_thread: usize) -> (f64, usize) {
    let load = Load {
        clients,
        per_thread,
        live_cap: 64,
        size: live::class_sweep,
    };
    let mut peak = ngm.serving_shards().len();
    let secs = live::drive(ngm, load, live::must_alloc, TICK_EVERY, || {
        ngm.tick();
        peak = peak.max(ngm.serving_shards().len());
    });
    (secs, peak)
}

/// Runs the ramp on the live elastic tier plus the simulated
/// predicted-width column; with `profile` the elastic tier arms PMU
/// sessions and the report carries their readings (`--hw`).
pub fn run(scale: Scale, profile: bool) -> ElasticReport {
    let per_thread = 10_000usize * scale.0.max(1) as usize;

    // Fixed-width reference first: 16 clients on exactly four rooms.
    let fixed = ngm_core::NgmConfig::new()
        .with_shards(FIXED_SHARDS)
        .with_batch(16, 8)
        .with_placement(ngm_core::CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    let (fixed_secs, _) = churn_stage(&fixed, 16, per_thread);
    let fixed_allocs_per_sec = (16 * per_thread) as f64 / fixed_secs;
    assert!(
        fixed.shutdown().balanced(),
        "fixed reference tier unbalanced"
    );

    // The elastic tier under the ramp.
    let ngm = ngm_core::NgmConfig::new()
        .with_shards(ELASTIC_MIN)
        .elastic(ELASTIC_MIN, ELASTIC_MAX)
        .with_batch(16, 8)
        .with_placement(ngm_core::CorePlacement::Unpinned)
        .with_profile(profile)
        .build()
        .expect("valid config");
    let mut stages = Vec::new();
    for &clients in &STAGES {
        let (secs, peak) = churn_stage(&ngm, clients, per_thread);
        let events = sim_workload(clients, scale);
        let allocs = events
            .iter()
            .filter(|e| matches!(e, ngm_workloads::Event::Malloc { .. }))
            .count() as f64;
        let predicted = NgmModel::predicted_shards(clients, ELASTIC_MIN, ELASTIC_MAX);
        let mut machine = Machine::new(NgmModel::machine(clients, predicted));
        let mut model = NgmModel::with_tier(clients, predicted, 1, Protocol::Detailed);
        let r = run_warm(&mut machine, &mut model, events.into_iter(), 0);
        stages.push(StageRow {
            clients,
            predicted_shards: predicted,
            sim_allocs_per_mcycle: allocs / (r.wall_cycles as f64 / 1e6),
            live_serving: ngm.serving_shards().len(),
            peak_serving: peak,
            allocs_per_sec: (clients * per_thread) as f64 / secs,
        });
    }

    // A warm 16-client burst: the tier is already wide from the ramp's
    // peak stage, so this measures steady-state elastic throughput
    // rather than the widening transient.
    let (burst_secs, _) = churn_stage(&ngm, 16, per_thread);
    let elastic_peak_allocs_per_sec = (16 * per_thread) as f64 / burst_secs;

    let settled_serving = live::settle(&ngm, TICK_EVERY, || {
        ngm.tick();
    });
    let scale_events = ngm.scale_counts();
    let down = ngm.shutdown();
    ElasticReport {
        stages,
        settled_serving,
        scale_events,
        balanced: down.clean() && down.balanced(),
        elastic_peak_allocs_per_sec,
        fixed_allocs_per_sec,
        pmu: down.pmu,
    }
}

impl ElasticReport {
    /// Whether the live serving count rose to the ramp's peak stage and
    /// fell back afterwards (the experiment's headline claim).
    pub fn followed_load(&self) -> bool {
        let peak = self
            .stages
            .iter()
            .map(|s| s.peak_serving)
            .max()
            .unwrap_or(0);
        peak > ELASTIC_MIN && self.settled_serving == ELASTIC_MIN
    }

    /// Renders the ramp table and the verdict lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Elastic tier — shard count vs client ramp (min {ELASTIC_MIN}, max {ELASTIC_MAX})\n"
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>16} {:>8} {:>8} {:>14}",
            "clients", "predicted", "sim allocs/Mcyc", "serving", "peak", "allocs/sec"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>16.1} {:>8} {:>8} {:>14.0}",
                s.clients,
                s.predicted_shards,
                s.sim_allocs_per_mcycle,
                s.live_serving,
                s.peak_serving,
                s.allocs_per_sec
            );
        }
        let _ = writeln!(
            out,
            "\nsettled serving after idle: {} (floor {ELASTIC_MIN})",
            self.settled_serving
        );
        let _ = writeln!(
            out,
            "scale events: {} up, {} down; balanced at shutdown: {}",
            self.scale_events.0, self.scale_events.1, self.balanced
        );
        let _ = writeln!(out, "shard count followed load: {}", self.followed_load());
        let _ = writeln!(
            out,
            "16-client throughput: elastic (warm) {:.0}/s vs fixed-{FIXED_SHARDS} {:.0}/s — elastic faster: {}",
            self.elastic_peak_allocs_per_sec,
            self.fixed_allocs_per_sec,
            self.elastic_peak_allocs_per_sec > self.fixed_allocs_per_sec
        );
        let cores = ngm_offload::available_cores();
        if cores < ELASTIC_MAX + 16 {
            let _ = writeln!(
                out,
                "(note: {cores} core(s) available — a tier wider than the machine \
                 timeslices instead of parallelizing, so the throughput comparison \
                 reflects scheduler pressure, not tier width)"
            );
        }
        out.push_str(&live::render_pmu(
            "### Hardware counters of the ramp above",
            self.pmu.as_ref(),
        ));
        out
    }
}
