//! Span phase breakdown: where a request's round trip actually goes.
//!
//! A timed single-block `alloc` round trip is one record (enqueue →
//! claimed → served → observed), which the service books once the
//! client has collected the response, into the per-shard
//! `ngm_call_cycles` and `ngm_phase_*_cycles` histograms: claim, serve
//! (which lies inside observe) and observe; the `queue` and `publish`
//! rows read zero. A trip the service was already polling for is claimed
//! on arrival and books no claim phase; their share is printed beside
//! the claim row. The tier is untraced, so one trip in 64 is timed: the
//! calls are counted by the tier's counter, and the sums and percentiles
//! are those of the timed trips. This experiment drives the live tier
//! under the paper's per-call handshake (`with_batch(1, 1)`) per shard
//! count, reads the books once the tier is down, and renders the phase
//! table: sum, share of the round trip, and percentiles per phase, in
//! cycles and nanoseconds.
//!
//! **Coverage** — the claim and observe sums over the `ngm_call_cycles`
//! sum — is 1.0 by construction, since one record feeds all three (the
//! smoke test's bar is ±10%). With `--hw` the same run runs under the
//! harness's PMU sessions, so the phase table and the service-vs-client
//! counter report under it come from one run.

use std::sync::Arc;

use ngm_offload::{PHASES, PHASE_NAMES};
use ngm_telemetry::clock::cycles_to_ns;
use ngm_telemetry::hist::HistogramSnapshot;

use crate::live::{self, Load};
use crate::report::Table;
use crate::Scale;

/// Shard counts crossed by the breakdown.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Client threads driving each row.
pub const CLIENTS: usize = 2;

/// One shard count's phase breakdown, merged across shards.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Service shards in the tier.
    pub shards: usize,
    /// Single-block calls served, from the tier's counter.
    pub calls: u64,
    /// Calls timed: the count of `ngm_call_cycles`.
    pub timed: u64,
    /// Sum of `ngm_call_cycles` — the whole timed round trips.
    pub call_sum: u64,
    /// Snapshot per phase, [`PHASE_NAMES`] order.
    pub phases: Vec<HistogramSnapshot>,
    /// This row's service-shards-vs-clients PMU report, when it ran
    /// profiled.
    pub pmu: Option<ngm_pmu::PmuReport>,
}

/// [`PHASE_NAMES`] indices of the claim and serve rows.
const CLAIM: usize = 1;
const SERVE: usize = 2;

impl SpanRow {
    /// Total cycles across the phases that partition the round trip; the
    /// serve lies inside observe.
    #[must_use]
    pub fn phase_total(&self) -> u64 {
        PHASE_NAMES
            .iter()
            .zip(&self.phases)
            .filter(|(name, _)| **name != "serve")
            .map(|(_, h)| h.sum())
            .sum()
    }

    /// Phase-sum coverage of the call sum (1.0 = exact partition).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.call_sum == 0 {
            return 0.0;
        }
        self.phase_total() as f64 / self.call_sum as f64
    }

    /// Share of the timed trips the service claimed on arrival: every
    /// timed trip books a serve, and only one that waited books a claim.
    #[must_use]
    pub fn claimed_on_arrival(&self) -> f64 {
        let (timed, waited) = (self.phases[SERVE].count(), self.phases[CLAIM].count());
        timed.saturating_sub(waited) as f64 / timed.max(1) as f64
    }
}

/// The full experiment: one row per shard count.
#[derive(Debug, Clone)]
pub struct SpansReport {
    /// Rows in [`SHARD_COUNTS`] order.
    pub rows: Vec<SpanRow>,
}

/// Drives an alloc/free ping-pong under `with_batch(1, 1)` (so every
/// alloc is one round trip, one in 64 of them timed) and, once the tier
/// is down and every timed trip booked, reads the merged phase
/// histograms back through the metrics exporter — the same series
/// Prometheus would scrape.
fn run_row(shards: usize, scale: Scale, profile: bool) -> SpanRow {
    let ngm = ngm_core::NgmConfig::new()
        .with_shards(shards)
        .with_batch(1, 1)
        .with_placement(ngm_core::CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    let hw = profile.then(|| live::Sessions::open(&ngm));
    let load = Load {
        clients: CLIENTS,
        per_thread: 10_000 * scale.0.max(1) as usize,
        live_cap: 0,
        size: live::class_sweep,
    };
    live::drive(
        &ngm,
        load,
        hw.as_ref(),
        live::must_alloc,
        live::JOIN_POLL,
        || (),
    );
    let telemetry: Vec<_> = (0..shards)
        .map(|s| Arc::clone(ngm.shard_telemetry(s)))
        .collect();
    // The service threads' clocks read nothing once they have exited.
    let pmu = hw.map(live::Sessions::report);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "spans run stayed exact");
    let peers: Vec<_> = telemetry[1..].iter().map(|t| &**t).collect();
    let m = telemetry[0].metrics_merged(&down.runtime, &peers);
    let calls = m
        .get_histogram("ngm_call_cycles")
        .expect("call histogram exported");
    let phases: Vec<HistogramSnapshot> = PHASE_NAMES
        .iter()
        .map(|name| {
            m.get_histogram(&format!("ngm_phase_{name}_cycles"))
                .expect("phase histogram exported")
                .clone()
        })
        .collect();
    SpanRow {
        shards,
        calls: down.runtime.calls_served,
        timed: calls.count(),
        call_sum: calls.sum(),
        phases,
        pmu,
    }
}

/// Runs the phase breakdown across [`SHARD_COUNTS`]; with `profile`
/// every row runs under PMU sessions (`--hw`).
pub fn run(scale: Scale, profile: bool) -> SpansReport {
    SpansReport {
        rows: SHARD_COUNTS
            .iter()
            .map(|&shards| run_row(shards, scale, profile))
            .collect(),
    }
}

impl SpansReport {
    /// Renders the per-shard-count phase tables and coverage lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Spans — request-lifecycle phase breakdown ({CLIENTS} clients, with_batch(1, 1))\n"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "### {} shard(s): {} calls, {} timed, timed round-trip sum {} cycles",
                row.shards, row.calls, row.timed, row.call_sum
            );
            // Shares are of the round trip: serve's lies inside observe's.
            let mut t = Table::new(&["phase", "sum cycles", "share", "p50", "p99", "p50 ns"]);
            let total = row.phase_total().max(1);
            for (i, name) in PHASE_NAMES.iter().enumerate() {
                debug_assert!(i < PHASES);
                let h = &row.phases[i];
                let arrived = (i == CLAIM).then(|| {
                    format!(
                        " ({:.1}% claimed on arrival)",
                        100.0 * row.claimed_on_arrival()
                    )
                });
                t.row(vec![
                    format!("{name}{}", arrived.unwrap_or_default()),
                    h.sum().to_string(),
                    format!("{:.1}%", 100.0 * h.sum() as f64 / total as f64),
                    h.p50().to_string(),
                    h.p99().to_string(),
                    cycles_to_ns(h.p50()).to_string(),
                ]);
            }
            let _ = writeln!(out, "{}", t.render());
            let _ = writeln!(
                out,
                "phase-sum coverage of call sum: {:.4} (1.0 = exact partition)",
                row.coverage()
            );
            out.push_str(&live::render_pmu(
                "#### PMU counters of this row",
                row.pmu.as_ref(),
            ));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_sums_partition_the_round_trip() {
        let row = run_row(2, Scale(1), false);
        assert!(row.pmu.is_none(), "not profiled, no report");
        assert_eq!(row.calls, (CLIENTS * 10_000) as u64);
        // One in 64 per slot, and each client has a slot on each shard.
        assert!(row.timed > 0 && row.timed < row.calls / 32, "{}", row.timed);
        let cov = row.coverage();
        assert!(
            (cov - 1.0).abs() < 0.10,
            "phase sum within 10% of call sum (got {cov}): exact partition expected"
        );
        assert_eq!(
            row.phase_total(),
            row.call_sum,
            "one record, read after shutdown"
        );
        assert_eq!(
            row.phases[SERVE].count(),
            row.timed,
            "every timed trip serves"
        );
    }

    #[test]
    fn profiled_row_prints_its_counters_under_its_own_phase_table() {
        let report = SpansReport {
            rows: vec![run_row(1, Scale(1), false), run_row(2, Scale(1), true)],
        };
        let pmu = report.rows[1].pmu.as_ref().expect("profiled row");
        let names: Vec<&str> = pmu.cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["shard0", "shard1", "clients(2)"]);
        let text = report.render();
        let section = text.find("### 2 shard(s)").expect("the profiled row");
        let coverage = section
            + text[section..]
                .find("phase-sum coverage")
                .expect("coverage");
        let cols = text.find("shard0/").expect("service column");
        assert!(
            coverage < cols,
            "PMU table follows its row's coverage:\n{text}"
        );
        assert_eq!(text.matches("clients(2)/").count(), 1, "{text}");
    }

    #[test]
    fn report_renders_phase_names_and_coverage() {
        let report = SpansReport {
            rows: vec![SpanRow {
                shards: 1,
                calls: 4,
                timed: 4,
                call_sum: 400,
                phases: (0..PHASES)
                    .map(|_| {
                        let h = ngm_telemetry::hist::LatencyHistogram::new();
                        h.record(20);
                        h.snapshot()
                    })
                    .collect(),
                pmu: None,
            }],
        };
        let text = report.render();
        for name in PHASE_NAMES {
            assert!(text.contains(name), "{text}");
        }
        assert!(text.contains("coverage"), "{text}");
        // Each phase recorded once: as many claims as serves, so none
        // was claimed on arrival.
        assert!(text.contains("claim (0.0% claimed on arrival)"), "{text}");
    }
}
