//! Shards ablation: how wide should the allocator's "own room" be?
//!
//! The paper dedicates *one* service core (§3.1.3); this ablation
//! generalizes it to a tier of N sharded service cores and measures when
//! the extra rooms pay. The simulated half crosses shard count × client
//! count on a malloc-heavy churn workload: with few clients one service
//! core keeps up and sharding buys little, but as clients grow the single
//! core saturates and the tier divides the bottleneck. The real-runtime
//! half runs the same shape on the live sharded [`ngm_core::Ngm`] and
//! verifies the routing invariant that makes the tier correct at all:
//! every shard balances `allocs == frees` exactly, even though clients
//! free blocks cross-thread.

use ngm_sim::Machine;
use ngm_simalloc::ngm::{NgmModel, Protocol};
use ngm_simalloc::run_warm;
use ngm_workloads::churn::{self, ChurnParams};

use crate::live::{self, Load};
use crate::Scale;

/// Shard counts crossed by the ablation.
pub const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Client (application-core) counts crossed by the ablation.
pub const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One simulated cell: a (shards, clients) pair.
#[derive(Debug, Clone, Copy)]
pub struct ShardCell {
    /// Service shards in the tier.
    pub shards: usize,
    /// Application cores issuing malloc/free.
    pub clients: usize,
    /// Simulated wall cycles for the whole replay.
    pub wall_cycles: u64,
    /// Allocations per million wall cycles (the throughput figure).
    pub allocs_per_mcycle: f64,
}

/// The full simulated grid plus the real-runtime validation rows.
#[derive(Debug, Clone)]
pub struct ShardsReport {
    /// One cell per (shards, clients) pair, row-major by shard count.
    pub cells: Vec<ShardCell>,
    /// Real-runtime rows, one per shard count.
    pub real: Vec<RealShardRow>,
}

/// One real-runtime measurement: the live sharded tier under churning
/// client threads.
#[derive(Debug, Clone)]
pub struct RealShardRow {
    /// Service shards in the tier.
    pub shards: usize,
    /// Client threads used.
    pub clients: usize,
    /// Wall-clock seconds for the churn loop.
    pub secs: f64,
    /// Allocations per second across all clients.
    pub allocs_per_sec: f64,
    /// Whether every shard balanced `allocs == frees` at shutdown.
    pub balanced: bool,
    /// Per-shard allocation counts (the tier's load spread).
    pub per_shard_allocs: Vec<u64>,
    /// This row's service-shards-vs-clients PMU report, when it ran
    /// profiled.
    pub pmu: Option<ngm_pmu::PmuReport>,
}

/// A malloc-heavy multi-class churn: sizes span several size classes so
/// the class → shard map spreads traffic across the whole tier, and
/// touches/compute are minimal so the allocator dominates — the regime
/// where the service tier is the bottleneck.
fn workload(clients: usize, scale: Scale) -> Vec<ngm_workloads::Event> {
    churn::collect(&ChurnParams {
        threads: clients as u8,
        total_allocs: 4_000 * (scale.0.max(1)) * clients as u32,
        live_cap: 128,
        size_range: (16, 2048),
        free_percent: 45,
        touch_percent: 5,
        compute_per_step: 4,
        seed: 0x5ead5,
    })
}

/// Runs the simulated grid and the real-runtime rows; with `profile` the
/// real rows run with PMU sessions armed (`--hw`).
pub fn run(scale: Scale, profile: bool) -> ShardsReport {
    let mut cells = Vec::new();
    for &shards in &SHARD_COUNTS {
        for &clients in &CLIENT_COUNTS {
            let events = workload(clients, scale);
            let allocs = events
                .iter()
                .filter(|e| matches!(e, ngm_workloads::Event::Malloc { .. }))
                .count() as f64;
            let mut machine = Machine::new(NgmModel::machine(clients, shards));
            let mut model = NgmModel::with_tier(clients, shards, 1, Protocol::Detailed);
            let r = run_warm(&mut machine, &mut model, events.into_iter(), 0);
            assert_eq!(r.leaked, 0, "balanced stream");
            cells.push(ShardCell {
                shards,
                clients,
                wall_cycles: r.wall_cycles,
                allocs_per_mcycle: allocs / (r.wall_cycles as f64 / 1e6),
            });
        }
    }
    ShardsReport {
        cells,
        real: CLIENT_COUNTS
            .iter()
            .rev()
            .take(1) // the saturated case: most clients
            .flat_map(|&clients| {
                SHARD_COUNTS
                    .iter()
                    .map(move |&shards| run_real(shards, clients, scale, profile))
            })
            .collect(),
    }
}

/// Runs the churn shape on the live runtime with `shards` service
/// threads and `clients` client threads. With `profile` the tier also
/// arms PMU sessions and the row carries their report (`--hw`).
pub fn run_real(shards: usize, clients: usize, scale: Scale, profile: bool) -> RealShardRow {
    let ngm = ngm_core::NgmConfig::new()
        .with_shards(shards)
        .with_batch(16, 8)
        .with_placement(ngm_core::CorePlacement::Unpinned)
        .with_profile(profile)
        .build()
        .expect("valid config");
    let load = Load {
        clients,
        per_thread: 20_000 * scale.0.max(1) as usize,
        live_cap: 64,
        size: live::class_sweep,
    };
    let secs = live::drive(&ngm, load, live::must_alloc, live::JOIN_POLL, || ());
    let down = ngm.shutdown();
    RealShardRow {
        shards,
        clients,
        secs,
        allocs_per_sec: (clients * load.per_thread) as f64 / secs,
        balanced: down.clean() && down.balanced(),
        per_shard_allocs: down.shards.iter().map(|s| s.service.allocs).collect(),
        pmu: down.pmu,
    }
}

impl ShardsReport {
    /// The simulated speedup of `shards` over one shard at `clients`.
    pub fn sim_speedup(&self, shards: usize, clients: usize) -> f64 {
        let wall = |s: usize| {
            self.cells
                .iter()
                .find(|c| c.shards == s && c.clients == clients)
                .expect("cell in grid")
                .wall_cycles as f64
        };
        wall(1) / wall(shards)
    }

    /// Renders the grid, the speedup line, and the real-runtime rows.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "## Shards ablation — service-tier width (simulated)\n");
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>16} {:>16}",
            "shards", "clients", "wall cycles", "allocs/Mcycle"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>16} {:>16.1}",
                c.shards, c.clients, c.wall_cycles, c.allocs_per_mcycle
            );
        }
        let clients = *CLIENT_COUNTS.last().expect("non-empty");
        let _ = writeln!(out);
        for &s in &SHARD_COUNTS[1..] {
            let _ = writeln!(
                out,
                "speedup at {clients} clients, {s} shards vs 1: {:.2}x",
                self.sim_speedup(s, clients)
            );
        }
        if !self.real.is_empty() {
            let _ = writeln!(out, "\n### Real runtime (wall clock, per-shard balance)\n");
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>12} {:>14}  {:<9} per-shard allocs",
                "shards", "clients", "secs", "allocs/sec", "balanced"
            );
            for r in &self.real {
                let _ = writeln!(
                    out,
                    "{:<8} {:>8} {:>12.3} {:>14.0}  {:<9} {:?}",
                    r.shards, r.clients, r.secs, r.allocs_per_sec, r.balanced, r.per_shard_allocs
                );
            }
            for r in &self.real {
                let heading = format!(
                    "#### {} shard(s), {} clients — PMU counters of this row",
                    r.shards, r.clients
                );
                out.push_str(&live::render_pmu(&heading, r.pmu.as_ref()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_row_carries_its_own_service_and_client_columns() {
        let row = run_real(2, 2, Scale(1), true);
        assert!(row.balanced, "{row:?}");
        let pmu = row.pmu.as_ref().expect("profiled row carries its report");
        let names: Vec<&str> = pmu.cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["shard0", "shard1", "clients(2)"]);

        // Under the real-runtime table, headed by the row it measured.
        let text = ShardsReport {
            // The speedup lines want the widest client count's cells.
            cells: SHARD_COUNTS
                .iter()
                .map(|&shards| ShardCell {
                    shards,
                    clients: *CLIENT_COUNTS.last().expect("non-empty"),
                    wall_cycles: 1,
                    allocs_per_mcycle: 1.0,
                })
                .collect(),
            real: vec![run_real(1, 2, Scale(1), false), row],
        }
        .render();
        let table = text.find("per-shard allocs").expect("real-runtime table");
        let head = text
            .find("#### 2 shard(s), 2 clients")
            .expect("PMU heading");
        let cols = text.find("shard0/").expect("service column");
        assert!(table < head && head < cols, "{text}");
        assert!(
            !text.contains("#### 1 shard(s)"),
            "an unprofiled row prints no PMU section:\n{text}"
        );
    }
}
