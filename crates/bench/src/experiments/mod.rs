//! One module per paper artifact.

pub mod ablations;
pub mod conns;
pub mod faults;
pub mod fig1;
pub mod fig2;
pub mod model41;
pub mod obs;
pub mod pmu;
pub mod shards;
pub mod spans;
pub mod table1;
pub mod table2;
pub mod table3;

use ngm_simalloc::{run_kind_warm, ModelKind, RunResult};
use ngm_workloads::xalanc::{self, XalancParams};

use crate::Scale;

/// The xalanc configuration for a given scale. Scale 1 is the calibrated
/// default; tests use [`XalancParams::small`] through
/// [`run_xalanc_baselines_with`].
pub fn xalanc_params(scale: Scale) -> XalancParams {
    XalancParams::default().scaled(scale.0.max(1))
}

/// Runs the xalanc workload under every baseline allocator model —
/// the shared substrate of Figure 1 and Table 1. Counters exclude the
/// warmup window (the allocator's pre-fragmentation transient).
pub fn run_xalanc_baselines(scale: Scale) -> Vec<RunResult> {
    run_xalanc_baselines_with(&xalanc_params(scale))
}

/// As [`run_xalanc_baselines`] with explicit parameters.
pub fn run_xalanc_baselines_with(params: &XalancParams) -> Vec<RunResult> {
    let (events, warmup) = xalanc::collect_with_warmup(params);
    ModelKind::BASELINES
        .into_iter()
        .map(|kind| run_kind_warm(kind, 1, events.iter().copied(), warmup))
        .collect()
}

#[cfg(test)]
mod diag {
    use super::*;

    #[test]
    #[ignore]
    fn meta_miss_breakdown() {
        use ngm_simalloc::run_kind_warm;
        let (events, warmup) = xalanc::collect_with_warmup(&xalanc_params(Scale(1)));
        for kind in [ModelKind::Mimalloc, ModelKind::Ngm] {
            let r = run_kind_warm(kind, 1, events.iter().copied(), warmup);
            let app = r.app_total(1);
            println!(
                "{}: app meta-LLC {} user-LLC {} l1d-store-miss {} llc-store-miss {} atomics {} wall {}",
                r.name,
                app.meta_llc_misses,
                app.user_llc_misses,
                app.l1d_store_misses,
                app.llc_store_misses,
                r.model_atomics,
                r.wall_cycles,
            );
        }
    }

    #[test]
    #[ignore]
    fn small_params_shape() {
        for r in run_xalanc_baselines_with(&ngm_workloads::xalanc::XalancParams::small()) {
            println!(
                "{}: cycles {} dTLB-load-MPKI {:.3} LLC-load-MPKI {:.3}",
                r.name,
                r.wall_cycles,
                r.total.dtlb_load_mpki(),
                r.total.llc_load_mpki()
            );
        }
    }

    #[test]
    #[ignore]
    fn floor_without_queries() {
        let mut p = xalanc_params(Scale(1));
        p.queries_per_node = 0;
        for r in run_xalanc_baselines_with(&p) {
            println!(
                "{}: dTLB-load {} ({:.3} MPKI), LLC-load {} ({:.3}), cycles {}",
                r.name,
                r.total.dtlb_load_misses,
                r.total.dtlb_load_mpki(),
                r.total.llc_load_misses,
                r.total.llc_load_mpki(),
                r.wall_cycles
            );
        }
    }
}
