//! PMU experiment: hardware attribution on the real runtime.
//!
//! Runs a mixed alloc/free workload on the actual offloaded allocator
//! under the harness's PMU sessions, then renders:
//!
//! 1. the service-core-vs-app-cores counter report (§2.3's attribution
//!    question, measured instead of simulated), with the exact leak
//!    check of the shutdown books (every shard clean, `allocs == frees`
//!    on each), and
//! 2. a sim-vs-measured MPKI comparison for one replay kernel, the same
//!    bridge `table1 --hw` uses.
//!
//! Works everywhere: where `perf_event_open` is unavailable the readings
//! degrade to the labeled software backend.

use ngm_core::NgmConfig;
use ngm_simalloc::{run_kind_warm, ModelKind};
use ngm_workloads::xalanc;

use crate::hw;
use crate::live::{self, Load};
use crate::Scale;

/// Runs the experiment and renders both sections.
pub fn run(scale: Scale, ops: u32) -> String {
    let perf = match ngm_pmu::hardware_available() {
        Ok(()) => "hardware perf counters available".to_string(),
        Err(e) => format!("hardware perf unavailable ({e}); software fallback in use"),
    };

    // --- 1. Real-runtime attribution ---------------------------------
    let ngm = NgmConfig::new()
        .with_batch(16, 8)
        .build()
        .expect("valid config");
    let hw = live::Sessions::open(&ngm);
    let load = Load {
        clients: 2,
        per_thread: ops.max(1) as usize,
        live_cap: 32,
        size: live::scattered,
    };
    live::drive(
        &ngm,
        load,
        Some(&hw),
        live::must_alloc,
        live::JOIN_POLL,
        || (),
    );
    let attribution = hw.report();
    let down = ngm.shutdown();
    let leak_free = down.clean() && down.balanced();

    // --- 2. Sim-vs-measured bridge on one replay kernel --------------
    let (events, warmup) =
        xalanc::collect_with_warmup(&ngm_workloads::xalanc::XalancParams::small());
    let (r, measured) = hw::measure_replay(
        || run_kind_warm(ModelKind::Ngm, 1, events.iter().copied(), warmup),
        |r| r.total,
    );
    let sim = hw::sim_reading(&r.total);
    let deltas = hw::mpki_deltas(r.name, &sim, &measured);

    format!(
        "PMU: hardware measurement (scale {}x, {})\n\
         ==========================================\n\n\
         --- Service core vs app cores (real runtime, {} ops/thread) ---\n{}\
         clean and balanced at shutdown (leak-free): {leak_free}\n\n\
         --- Simulator vs host PMU (NGM model replay) ---\n{}",
        scale.0,
        perf,
        load.per_thread,
        attribution.render(),
        hw::render_deltas(&deltas),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_renders_all_sections_without_perf_assumptions() {
        let s = run(Scale(1), 300);
        assert!(s.contains("service/"), "service column labeled:\n{s}");
        assert!(s.contains("clients(2)/"), "client column labeled:\n{s}");
        assert!(
            s.contains("leak-free): true"),
            "balanced workload must be leak-free:\n{s}"
        );
        assert!(s.contains("sim-vs-measured MPKI deltas"), "{s}");
        assert!(
            s.contains("hardware perf"),
            "availability note present:\n{s}"
        );
    }
}
