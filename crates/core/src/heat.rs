//! Per-shard heat reporting: rolling-window views of where the tier is
//! hot and why.
//!
//! [`crate::api::Ngm::tick`] — the tier's one clock — samples every
//! shard into its [`HeatWindow`]; [`crate::api::Ngm::heat_report`] reads
//! the windowed aggregates back as a [`HeatReport`]: recent calls,
//! deadline/retry/fallback rates, ring occupancy, windowed phase
//! percentiles, and per-size-class refill demand. Everything but the
//! tick is a pure read, so a scrape never moves a window. The same
//! windows back two more consumers that must agree on what "hot" means:
//!
//! * [`crate::api::NgmHandle::rebalance_away_from`] scores candidate
//!   shards with [`ObsState::heat_score`] instead of raw handle-local
//!   ring-saturation counts, so traffic moves to the shard that is
//!   *recently* coolest, not merely the one this handle happened not to
//!   hammer.
//! * The blackbox flight recorder archives the rendered
//!   [`ObsState::report`] into every dump, so a post-mortem shows the
//!   heat picture at failure time.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use ngm_offload::PHASE_NAMES;
use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::window::{HeatDelta, HeatFrame, HeatWindow};

use crate::api::lock;
use crate::watch::SharedDemand;

/// Where a shard slot is in its elastic lifecycle.
///
/// Non-elastic tiers hold every slot at `Serving` forever; the elastic
/// controller walks slots through `Dormant → Serving → Draining →
/// Retired` (and `Retired → Serving` on a respawn, or `Draining →
/// Serving` when a drain aborts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardLifecycle {
    /// Built but never spawned: the slot's service (heap, owner stamp,
    /// orphan stack) exists, parked, with no thread.
    Dormant = 0,
    /// Thread running, accepting allocations and frees.
    Serving = 1,
    /// Thread running but gated against new allocations; frees keep
    /// landing until the shard's alloc/free balance reaches zero.
    Draining = 2,
    /// Drained to zero balance and joined; the service is parked again
    /// and the slot can respawn later.
    Retired = 3,
}

impl ShardLifecycle {
    fn from_u8(v: u8) -> Self {
        match v {
            1 => ShardLifecycle::Serving,
            2 => ShardLifecycle::Draining,
            3 => ShardLifecycle::Retired,
            _ => ShardLifecycle::Dormant,
        }
    }

    /// Stable lowercase label for reports and dumps.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            ShardLifecycle::Dormant => "dormant",
            ShardLifecycle::Serving => "serving",
            ShardLifecycle::Draining => "draining",
            ShardLifecycle::Retired => "retired",
        }
    }
}

/// Picks the coolest shard from `(shard, score)` candidates: lowest
/// score wins, ties go to the lowest index.
///
/// This is the *single* tie-breaking rule shared by
/// [`crate::api::NgmHandle::rebalance_away_from`] (picking where to move
/// traffic) and the elastic controller (picking which shard to retire) —
/// extracted so the two consumers cannot drift apart.
#[must_use]
pub fn pick_coolest<I>(candidates: I) -> Option<usize>
where
    I: IntoIterator<Item = (usize, u64)>,
{
    candidates
        .into_iter()
        .min_by_key(|&(shard, score)| (score, shard))
        .map(|(shard, _)| shard)
}

/// One shard's windowed heat.
#[derive(Debug, Clone)]
pub struct ShardHeat {
    /// The shard index.
    pub shard: usize,
    /// The windowed aggregate (newest frame minus the window baseline).
    pub heat: HeatDelta,
}

impl ShardHeat {
    /// A scalar hotness ranking: ring backlog plus windowed deadline
    /// expiries (weighted — a deadline is worse than a queued free) plus
    /// windowed full-ring retries. Comparable across shards because every
    /// term comes from the same window span.
    #[must_use]
    pub fn score(&self) -> u64 {
        self.heat
            .ring_occupancy
            .saturating_add(self.heat.deadlines.saturating_mul(4))
            .saturating_add(self.heat.retries)
    }
}

/// The tier-wide heat report: one windowed entry per shard.
#[derive(Debug, Clone)]
pub struct HeatReport {
    /// Per-shard windowed heat, indexed by shard.
    pub shards: Vec<ShardHeat>,
}

impl HeatReport {
    /// The hottest shard by [`ShardHeat::score`], if any shard reported.
    #[must_use]
    pub fn hottest(&self) -> Option<usize> {
        self.shards
            .iter()
            .max_by_key(|s| s.score())
            .map(|s| s.shard)
    }

    /// Renders the operator-facing text report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            let d = &s.heat;
            let _ = writeln!(
                out,
                "shard {}: score={} calls={} ring={} deadline_rate={:.3} \
                 retry_rate={:.3} fallback_rate={:.3}",
                s.shard,
                s.score(),
                d.calls,
                d.ring_occupancy,
                d.deadline_rate(),
                d.retry_rate(),
                d.fallback_rate(),
            );
            for (name, snap) in PHASE_NAMES.iter().zip(&d.phases) {
                if snap.count() > 0 {
                    let _ = writeln!(
                        out,
                        "  phase {name}: p50={} p99={} cycles (n={})",
                        snap.p50(),
                        snap.p99(),
                        snap.count()
                    );
                }
            }
            let mut top: Vec<(usize, u64)> = d
                .demand
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, n)| n > 0)
                .collect();
            top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            if !top.is_empty() {
                let _ = write!(out, "  refill demand:");
                for (class, n) in top.iter().take(4) {
                    let _ = write!(out, " class{class}={n}");
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Publishes the report as labeled gauge series (`shard` label).
    /// Windowed counts are gauges, not counters: they describe the recent
    /// window and may go down.
    pub fn publish(&self, m: &mut MetricsSnapshot) {
        // Family-major order: the exposition format requires all samples
        // of one family to sit under a single HELP/TYPE announcement, so
        // each family walks every shard before the next family starts.
        type Sample = fn(&ShardHeat) -> i64;
        let families: [(&str, Sample); 5] = [
            ("ngm_shard_heat_score", |s| s.score() as i64),
            ("ngm_shard_window_calls", |s| s.heat.calls as i64),
            ("ngm_shard_window_deadlines", |s| s.heat.deadlines as i64),
            ("ngm_shard_window_retries", |s| s.heat.retries as i64),
            ("ngm_shard_ring_occupancy", |s| s.heat.ring_occupancy as i64),
        ];
        for (name, value) in families {
            for s in &self.shards {
                let shard = s.shard.to_string();
                m.labeled_gauge(name, &[("shard", shard.as_str())], value(s));
            }
        }
    }
}

/// Shared observability state: per-shard heat windows plus the demand
/// mirrors they sample, cloned into every handle so rebalance decisions
/// and blackbox dumps read the same windows [`crate::api::Ngm`] writes.
#[derive(Debug)]
pub(crate) struct ObsState {
    /// Dump sink for failure edges; `None` when the blackbox is
    /// disabled (forced off under the global-allocator adapter — dump
    /// assembly allocates). Per-tier, so two tiers in one process have
    /// independent rate limiters and dump rings.
    pub(crate) blackbox: Option<ngm_telemetry::blackbox::BlackboxRecorder>,
    heat: Box<[Mutex<HeatWindow>]>,
    demand: Box<[Arc<SharedDemand>]>,
    /// Per-slot [`ShardLifecycle`] (as `u8`), written by the controller
    /// and `Ngm` lifecycle edges, read by every handle's route resync.
    states: Box<[AtomicU8]>,
    /// Bumped on every lifecycle transition; handles compare it against
    /// their cached value with one relaxed load per operation and resync
    /// their routes when it moved.
    generation: AtomicU64,
    /// [`crate::api::Ngm::tick`]s so far — the windows' time-base.
    ticks: AtomicU64,
    scale_up: AtomicU64,
    scale_down: AtomicU64,
    /// Cycles spent on observability work (metrics scrapes, recorder
    /// appends, endpoint renders), written only by the observer/scrape
    /// threads — never by the allocation hot path.
    obs_cycles: AtomicU64,
}

impl ObsState {
    pub(crate) fn new(blackbox: bool, demand: Vec<Arc<SharedDemand>>) -> Self {
        ObsState {
            blackbox: blackbox.then(ngm_telemetry::blackbox::BlackboxRecorder::new),
            heat: (0..demand.len())
                .map(|_| Mutex::new(HeatWindow::default()))
                .collect(),
            states: (0..demand.len())
                .map(|_| AtomicU8::new(ShardLifecycle::Dormant as u8))
                .collect(),
            demand: demand.into_boxed_slice(),
            generation: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            scale_up: AtomicU64::new(0),
            scale_down: AtomicU64::new(0),
            obs_cycles: AtomicU64::new(0),
        }
    }

    /// Accumulates cycles spent on observability work (observer threads
    /// only — zero hot-path writers).
    pub(crate) fn record_obs_cycles(&self, cycles: u64) {
        self.obs_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Total observability cycles so far.
    pub(crate) fn obs_cycles_total(&self) -> u64 {
        self.obs_cycles.load(Ordering::Relaxed)
    }

    /// The slot's current lifecycle state (racy read; transitions are
    /// serialized by the controller lock).
    pub(crate) fn state(&self, shard: usize) -> ShardLifecycle {
        ShardLifecycle::from_u8(self.states[shard].load(Ordering::Acquire))
    }

    /// Moves a slot to `state` and bumps the route generation so handles
    /// resync on their next operation.
    pub(crate) fn set_state(&self, shard: usize, state: ShardLifecycle) {
        self.states[shard].store(state as u8, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current route generation (see [`ObsState::set_state`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    pub(crate) fn record_tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn ticks_total(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    pub(crate) fn record_scale_up(&self) {
        self.scale_up.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_scale_down(&self) {
        self.scale_down.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn scale_up_total(&self) -> u64 {
        self.scale_up.load(Ordering::Relaxed)
    }

    pub(crate) fn scale_down_total(&self) -> u64 {
        self.scale_down.load(Ordering::Relaxed)
    }

    /// The shard's windowed heat when its window is *settled* — at least
    /// two frames, so the delta spans a real interval instead of the
    /// garbage-prone cumulative-since-start single-frame view. The
    /// elastic controller only acts on settled windows; anything less
    /// falls back to the static (no-op) policy.
    pub(crate) fn settled_heat(&self, shard: usize) -> Option<HeatDelta> {
        let w = lock(&self.heat[shard]);
        if w.len() < 2 {
            return None;
        }
        w.windowed()
    }

    /// The shard's last idle-published refill-demand counters.
    pub(crate) fn demand(&self, shard: usize) -> Vec<u64> {
        self.demand[shard].load()
    }

    /// Appends a cumulative sample. The windows' only writer: called by
    /// [`crate::api::Ngm::tick`] (and the `inject_heat` test hook).
    pub(crate) fn push_frame(&self, shard: usize, frame: HeatFrame) {
        lock(&self.heat[shard]).push(frame);
    }

    /// The shard's windowed heat as of the last tick; all-zero before
    /// the first one, so readers see every shard whatever the tick
    /// history.
    fn windowed(&self, shard: usize) -> ShardHeat {
        let heat = lock(&self.heat[shard]).windowed().unwrap_or_default();
        ShardHeat { shard, heat }
    }

    /// The shard's current hotness from already-pushed frames (0 before
    /// the first tick — scoring then falls back to the caller's own
    /// pressure signal). On the allocation path (`route` →
    /// `rebalance_away_from`), hence the poison-tolerant lock.
    pub(crate) fn heat_score(&self, shard: usize) -> u64 {
        self.windowed(shard).score()
    }

    /// The shard's retained heat frames, oldest first (the raw time
    /// series behind the `/heat` endpoint). Cloned out so the caller
    /// renders without holding the window lock.
    pub(crate) fn frames(&self, shard: usize) -> Vec<HeatFrame> {
        lock(&self.heat[shard]).frames().cloned().collect()
    }

    /// The windowed view of every shard as of the last tick: a pure
    /// read (scrapes and blackbox dumps must not perturb the windows
    /// they export).
    pub(crate) fn report(&self) -> HeatReport {
        HeatReport {
            shards: (0..self.heat.len()).map(|s| self.windowed(s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(calls: u64, deadlines: u64, ring: u64) -> HeatDelta {
        HeatDelta {
            span_tsc: 100,
            calls,
            deadlines,
            retries: 0,
            fallbacks: 0,
            ring_occupancy: ring,
            phases: Vec::new(),
            demand: vec![0, 5, 0],
        }
    }

    #[test]
    fn score_weights_deadlines_over_backlog() {
        let quiet = ShardHeat {
            shard: 0,
            heat: delta(100, 0, 3),
        };
        let wedged = ShardHeat {
            shard: 1,
            heat: delta(100, 10, 0),
        };
        assert!(wedged.score() > quiet.score());
        let report = HeatReport {
            shards: vec![quiet, wedged],
        };
        assert_eq!(report.hottest(), Some(1));
    }

    #[test]
    fn render_names_every_shard_and_demand_class() {
        let report = HeatReport {
            shards: vec![ShardHeat {
                shard: 2,
                heat: delta(10, 1, 4),
            }],
        };
        let text = report.render();
        assert!(text.contains("shard 2:"), "{text}");
        assert!(text.contains("deadline_rate=0.100"), "{text}");
        assert!(text.contains("class1=5"), "{text}");
    }

    #[test]
    fn publish_emits_one_labeled_series_per_shard() {
        let report = HeatReport {
            shards: vec![
                ShardHeat {
                    shard: 0,
                    heat: delta(1, 0, 0),
                },
                ShardHeat {
                    shard: 1,
                    heat: delta(2, 0, 9),
                },
            ],
        };
        let mut m = MetricsSnapshot::new();
        report.publish(&mut m);
        assert_eq!(m.labeled_gauge_count("ngm_shard_heat_score"), 2);
        assert_eq!(
            m.get_labeled_gauge("ngm_shard_window_calls", &[("shard", "1")]),
            Some(2)
        );
    }

    #[test]
    fn pick_coolest_orders_by_score_then_index() {
        assert_eq!(pick_coolest(std::iter::empty()), None);
        // Lowest score wins outright.
        assert_eq!(pick_coolest([(0, 9), (1, 2)]), Some(1));
        // Tie: lowest index wins — the invariant `rebalance_away_from`
        // has always had.
        assert_eq!(pick_coolest([(3, 5), (1, 5), (2, 5)]), Some(1));
    }

    #[test]
    fn lifecycle_labels_and_transitions_bump_generation() {
        let obs = ObsState::new(
            true,
            vec![
                Arc::new(SharedDemand::new(2)),
                Arc::new(SharedDemand::new(2)),
            ],
        );
        assert_eq!(obs.state(1), ShardLifecycle::Dormant);
        let g0 = obs.generation();
        obs.set_state(1, ShardLifecycle::Serving);
        assert_eq!(obs.state(1), ShardLifecycle::Serving);
        assert!(obs.generation() > g0);
        assert_eq!(ShardLifecycle::Draining.label(), "draining");
    }

    #[test]
    fn settled_heat_needs_two_frames() {
        let obs = ObsState::new(true, vec![Arc::new(SharedDemand::new(2))]);
        assert!(obs.settled_heat(0).is_none(), "zero frames: unsettled");
        obs.push_frame(
            0,
            HeatFrame {
                tsc: 10,
                calls: 100,
                ..HeatFrame::default()
            },
        );
        assert!(obs.settled_heat(0).is_none(), "one frame: unsettled");
        obs.push_frame(
            0,
            HeatFrame {
                tsc: 20,
                calls: 150,
                ..HeatFrame::default()
            },
        );
        let d = obs.settled_heat(0).expect("two frames settle the window");
        assert_eq!(d.calls, 50, "delta spans the two frames");
    }

    #[test]
    fn obs_state_reads_all_zero_until_frames_arrive() {
        let obs = ObsState::new(true, vec![Arc::new(SharedDemand::new(2))]);
        assert_eq!(obs.heat_score(0), 0);
        let empty = obs.report();
        assert_eq!(empty.shards.len(), 1, "an un-ticked shard still reports");
        assert_eq!(
            (empty.shards[0].heat.calls, empty.shards[0].score()),
            (0, 0)
        );
        obs.push_frame(
            0,
            HeatFrame {
                tsc: 10,
                ring_occupancy: 2,
                calls: 5,
                deadlines: 1,
                ..HeatFrame::default()
            },
        );
        assert_eq!(obs.report().shards[0].heat.calls, 5);
        assert_eq!(obs.heat_score(0), 2 + 4);
        assert!(obs.report().render().contains("shard 0:"));
    }

    #[test]
    fn a_poisoned_window_still_scores() {
        // `heat_score` sits on the allocation path: a panic in some
        // scrape thread holding a window lock must not turn every later
        // reroute into a panic inside `alloc`.
        let obs = Arc::new(ObsState::new(true, vec![Arc::new(SharedDemand::new(2))]));
        let poisoner = Arc::clone(&obs);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.heat[0].lock().unwrap();
            panic!("poison the window");
        })
        .join();
        assert!(obs.heat[0].is_poisoned());
        assert_eq!(obs.heat_score(0), 0);
        obs.push_frame(0, HeatFrame::default());
        assert_eq!(obs.frames(0).len(), 1);
        assert!(obs.settled_heat(0).is_none());
        assert_eq!(obs.report().shards.len(), 1);
    }
}
