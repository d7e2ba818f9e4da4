//! Per-shard heat reporting: rolling-window views of where the tier is
//! hot and why.
//!
//! [`crate::api::Ngm::tick`] — the tier's one clock — samples every
//! shard into its [`ngm_telemetry::window::HeatWindow`];
//! [`crate::api::Ngm::heat_report`] reads
//! the windowed aggregates back as a [`HeatReport`]: recent calls,
//! deadline/retry/fallback rates, ring occupancy, windowed phase
//! percentiles, and per-size-class refill demand. Everything but the
//! tick is a pure read, so a scrape never moves a window. The same
//! windows back two more consumers that must agree on what "hot" means:
//!
//! * [`crate::api::NgmHandle::rebalance_away_from`] scores candidate
//!   shards with [`ShardHeat::score`] instead of raw handle-local
//!   ring-saturation counts, so traffic moves to the shard that is
//!   *recently* coolest, not merely the one this handle happened not to
//!   hammer.
//! * The observer's flight recording carries each shard's settled
//!   windowed heat in every frame, so a post-mortem reads the heat
//!   picture around a failure from the frames beside it.
//!
//! The windows themselves live with the rest of a shard's state, one
//! per slot of the tier (`api/slot.rs`); this module is what they read
//! back as.

use std::fmt::Write as _;

use ngm_offload::PHASE_NAMES;
use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::window::HeatDelta;

/// Picks the coolest shard from `(shard, score)` candidates: lowest
/// score wins, ties go to the lowest index.
///
/// The tie-breaking rule [`crate::api::NgmHandle::rebalance_away_from`]
/// picks where to move traffic by.
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
}
