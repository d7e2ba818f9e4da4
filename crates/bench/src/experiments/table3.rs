//! Table 3: NextGen-Malloc vs. Mimalloc on `xalancbmk`.
//!
//! Paper: the prototype (pinned service thread, atomic-flag handshake) is
//! 4.51 % faster than Mimalloc, "coming from a reduction of dTLB load,
//! LLC load, and LLC store misses". Two views here:
//!
//! * **Simulated** — Mimalloc and one [`NgmModel`] at two refill
//!   batches on the A72-like machine: the paper's protocol (one
//!   handshake per malloc) and the tier `Ngm::start()` ships
//!   ([`SHIPPED_BATCH`] addresses per handshake), each under both sync
//!   accountings. NGM's heap metadata lives on the service core, so
//!   application-core misses drop; a refill hands out address-adjacent
//!   blocks, so every column carries its own app-core miss rows.
//! * **Prototype wall-clock** — three real allocators replaying the same
//!   event stream, each paired against `System` ([`live::paired`]): the
//!   mimalloc-style sharded heap inline, the tier `Ngm::start()` ships,
//!   and the paper's per-call handshake (`with_batch(1, 1)`, the
//!   protocol the paper columns model).

use std::sync::Arc;

use ngm_core::NgmConfig;
use ngm_sim::{Machine, PmuCounters};
use ngm_simalloc::ngm::{NgmModel, Protocol};
use ngm_simalloc::ModelKind;
use ngm_workloads::xalanc::{self, XalancParams};
use ngm_workloads::Event;

use crate::live::{self, Paired};
use crate::replay::{paired_replay, replay_heap, replay_ngm};
use crate::report::{mpki, sci, Table};
use crate::Scale;

/// Row extractor over simulated PMU counters.
type CounterFn = fn(&PmuCounters) -> f64;
/// Row extractor over one Table 3 column.
type ColFn = fn(&Table3Col) -> f64;

/// Addresses one handshake fetches on the tier `Ngm::start()` builds
/// (`NgmConfig::new().batch_size`).
pub const SHIPPED_BATCH: usize = ngm_core::MAX_BATCH;

/// The NGM columns, in table order: `(refill batch, accounting)`.
pub const NGM_COLUMNS: [(usize, Protocol); 4] = [
    (1, Protocol::Detailed),
    (1, Protocol::PaperModel),
    (SHIPPED_BATCH, Protocol::Detailed),
    (SHIPPED_BATCH, Protocol::PaperModel),
];

/// One allocator column.
#[derive(Debug, Clone)]
pub struct Table3Col {
    /// Column header.
    pub name: String,
    /// Application-core counters (what pollutes the app).
    pub app: PmuCounters,
    /// Service-core counters (NGM only; zeroes otherwise).
    pub service: PmuCounters,
    /// Wall cycles (max over cores).
    pub wall_cycles: u64,
}

/// The table's data.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Mimalloc, then one column per [`NGM_COLUMNS`] entry.
    pub cols: Vec<Table3Col>,
    /// Each real prototype allocator's replays over `System`'s, if run.
    pub prototype: Option<Vec<(&'static str, Paired)>>,
}

/// Runs the simulated comparison; `with_prototype` also replays the real
/// heaps for a wall-clock side table.
pub fn run(scale: Scale, with_prototype: bool) -> Table3 {
    run_with(&super::xalanc_params(scale), with_prototype)
}

/// As [`run`] with explicit workload parameters.
pub fn run_with(params: &XalancParams, with_prototype: bool) -> Table3 {
    let (events, warmup) = xalanc::collect_with_warmup(params);

    let mut cols = Vec::new();
    {
        let r = ngm_simalloc::driver::run_kind_warm(
            ModelKind::Mimalloc,
            1,
            events.iter().copied(),
            warmup,
        );
        cols.push(Table3Col {
            name: "Mimalloc".into(),
            app: r.app_total(1),
            service: PmuCounters::default(),
            wall_cycles: r.wall_cycles,
        });
    }
    for (batch, protocol) in NGM_COLUMNS {
        let mut machine = Machine::new(NgmModel::machine(1, 1));
        let mut model = NgmModel::with_tier(1, 1, batch, protocol);
        let r = ngm_simalloc::driver::run_warm(
            &mut machine,
            &mut model,
            events.iter().copied(),
            warmup,
        );
        let accounting = match protocol {
            Protocol::Detailed => "detailed",
            Protocol::PaperModel => "sec-4.1",
        };
        cols.push(Table3Col {
            name: if batch == 1 {
                format!("NGM ({accounting})")
            } else {
                format!("NGM x{batch} ({accounting})")
            },
            app: r.app_total(1),
            service: *r.per_core.last().expect("service core"),
            wall_cycles: r.wall_cycles,
        });
    }

    Table3 {
        cols,
        prototype: with_prototype.then(|| prototype(&events)),
    }
}

/// The prototype rows, each allocator built once, outside the timed
/// passes.
fn prototype(events: &[Event]) -> Vec<(&'static str, Paired)> {
    // Mimalloc-style: a sharded per-thread heap (single shard here —
    // the workload is single-threaded, as is SPEC's xalancbmk).
    let heap = ngm_heap::ShardedHeap::new(1);
    let mut handle = heap.handle(0);
    let inline = paired_replay(events, || replay_heap(&mut handle, events.iter().copied()));
    let mut rows = vec![("ShardedHeap inline (mimalloc-style)", inline)];
    for (name, cfg) in [
        ("NGM offloaded, NgmConfig::new()", NgmConfig::new()),
        (
            "NGM offloaded, with_batch(1, 1)",
            NgmConfig::new().with_batch(1, 1),
        ),
    ] {
        let ngm = Arc::new(cfg.build().expect("valid config"));
        let mut h = ngm.handle();
        let row = paired_replay(events, || replay_ngm(&mut h, events.iter().copied()));
        drop(h);
        rows.push((name, row));
        let down = live::finish(ngm);
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.heap.live_blocks, 0, "{down:?}");
    }
    rows
}

impl Table3 {
    /// Simulated speedup over Mimalloc of column `col` (an index into
    /// [`Table3::cols`]; 1-based over [`NGM_COLUMNS`]). The paper
    /// measured 1.0451x for what column 2 models.
    pub fn speedup(&self, col: usize) -> f64 {
        self.cols[0].wall_cycles as f64 / self.cols[col].wall_cycles as f64
    }

    /// Renders the side-by-side comparison.
    pub fn render(&self) -> String {
        let header: Vec<&str> = std::iter::once("metric")
            .chain(self.cols.iter().map(|c| c.name.as_str()))
            .collect();
        let mut t = Table::new(&header);
        let rows: [(&str, ColFn); 6] = [
            ("cycles (wall)", |c| c.wall_cycles as f64),
            ("instructions (app)", |c| c.app.instructions as f64),
            ("LLC-load-misses (app)", |c| c.app.llc_load_misses as f64),
            ("LLC-store-misses (app)", |c| c.app.llc_store_misses as f64),
            ("dTLB-load-misses (app)", |c| c.app.dtlb_load_misses as f64),
            ("dTLB-store-misses (app)", |c| {
                c.app.dtlb_store_misses as f64
            }),
        ];
        for (label, get) in rows {
            t.row(
                std::iter::once(label.to_string())
                    .chain(self.cols.iter().map(|c| sci(get(c))))
                    .collect(),
            );
        }
        let mut rates = Table::new(&header);
        let rrows: [(&str, CounterFn); 2] = [
            ("LLC-load-MPKI (app)", PmuCounters::llc_load_mpki),
            ("dTLB-load-MPKI (app)", PmuCounters::dtlb_load_mpki),
        ];
        for (label, get) in rrows {
            rates.row(
                std::iter::once(label.to_string())
                    .chain(self.cols.iter().map(|c| mpki(get(&c.app))))
                    .collect(),
            );
        }
        let pct = |col: usize| (self.speedup(col) - 1.0) * 100.0;
        let mut s = format!(
            "Table 3: Mimalloc vs NextGen-Malloc on xalancbmk (simulated)\n{}\n{}\nspeedup, detailed sync accounting: {:+.2}%\nspeedup, paper's sec-4.1 sync accounting: {:+.2}% [paper measured: +4.51%]\nservice-core misses (NGM, run concurrently): LLC-load {}, dTLB-load {}\n",
            t.render(),
            rates.render(),
            pct(1),
            pct(2),
            sci(self.cols[1].service.llc_load_misses as f64),
            sci(self.cols[1].service.dtlb_load_misses as f64),
        );
        s.push_str(&format!(
            "shipped default ({SHIPPED_BATCH} addresses per handshake), detailed sync accounting: {:+.2}% ({} wall cycles)\nshipped default, paper's sec-4.1 sync accounting: {:+.2}% ({} wall cycles)\nservice-core misses (NGM x{SHIPPED_BATCH}): LLC-load {}, dTLB-load {}\n",
            pct(3),
            self.cols[3].wall_cycles,
            pct(4),
            self.cols[4].wall_cycles,
            sci(self.cols[3].service.llc_load_misses as f64),
            sci(self.cols[3].service.dtlb_load_misses as f64),
        ));
        if let Some(rows) = &self.prototype {
            s.push_str("\nprototype wall-clock, each replay paired against System:\n");
            for (name, row) in rows {
                s.push_str(&format!("  {name:<36} {row}\n"));
            }
            s.push_str("(a host with fewer than two CPUs timeshares the service core; treat as indicative there)\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Table3 {
        run_with(&XalancParams::small(), false)
    }

    #[test]
    fn ngm_halves_app_side_tlb_pollution() {
        let t = small();
        let mi = &t.cols[0];
        let ngm = &t.cols[1];
        // The paper's stated mechanism reproduces: NGM's application core
        // sees far fewer dTLB misses (metadata moved to the service core).
        assert!(
            (ngm.app.dtlb_load_misses as f64) < 0.8 * mi.app.dtlb_load_misses as f64,
            "NGM app dTLB {} vs Mimalloc {}",
            ngm.app.dtlb_load_misses,
            mi.app.dtlb_load_misses
        );
        assert!(ngm.app.llc_load_misses <= mi.app.llc_load_misses);
    }

    #[test]
    fn speedups_are_plausible_and_ordered() {
        let t = small();
        let detailed = t.speedup(1);
        let paper = t.speedup(2);
        // The cheaper (paper) sync accounting can only help.
        assert!(
            paper >= detailed - 1e-9,
            "paper-model accounting must not be slower: {paper} vs {detailed}"
        );
        // Both land in a plausible band around the paper's +4.51%: our
        // faithful sync costs put the net at or below break-even (see
        // EXPERIMENTS.md for the crossover analysis).
        assert!(
            (0.6..1.3).contains(&detailed),
            "detailed speedup {detailed}"
        );
        assert!((0.6..1.3).contains(&paper), "paper-model speedup {paper}");
    }

    #[test]
    fn service_core_absorbs_metadata_misses() {
        let t = small();
        let ngm = &t.cols[1];
        assert!(ngm.service.instructions > 0);
        assert!(
            ngm.service.meta_llc_misses + ngm.service.llc_load_misses > 0,
            "service core should own the metadata traffic"
        );
    }

    #[test]
    fn render_reports_both_accountings_at_both_batches() {
        let s = small().render();
        assert!(s.contains("detailed sync accounting"));
        assert!(s.contains("4.51%"));
        assert!(s.contains(&format!("NGM x{SHIPPED_BATCH} (sec-4.1)")));
        assert!(s.contains("shipped default, paper's sec-4.1 sync accounting"));
    }

    #[test]
    fn shipped_batch_amortises_the_handshake_under_both_accountings() {
        let t = small();
        for (paper, shipped) in [(1, 3), (2, 4)] {
            assert!(
                t.cols[shipped].wall_cycles < t.cols[paper].wall_cycles,
                "{} not faster than {}",
                t.cols[shipped].name,
                t.cols[paper].name
            );
            // One handshake per batch: the app core's atomics fall with it.
            assert!(t.cols[shipped].app.atomic_rmws * 8 < t.cols[paper].app.atomic_rmws);
        }
    }
}
