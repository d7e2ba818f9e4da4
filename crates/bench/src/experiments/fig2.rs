//! Figure 2: aggregated vs. segregated metadata layout.
//!
//! The paper presents the layouts as a diagram and argues the trade-off
//! in prose; this experiment *measures* it, holding placement fixed and
//! varying only where free-list links live (`ngm-simalloc`'s
//! [`ngm_simalloc::layout::LayoutModel`]).

use ngm_sim::{Machine, MachineConfig};
use ngm_simalloc::layout::LayoutModel;
use ngm_simalloc::run;
use ngm_workloads::churn::{self, ChurnParams};

use crate::report::{sci, Table};
use crate::Scale;

/// Measurements for one layout.
#[derive(Debug, Clone)]
pub struct LayoutRow {
    /// Layout name.
    pub name: &'static str,
    /// Wall cycles for the churn run.
    pub cycles: u64,
    /// L1d load misses (warm-line effect shows here).
    pub l1d_load_misses: u64,
    /// LLC misses attributed to user accesses.
    pub user_llc_misses: u64,
    /// LLC misses attributed to metadata accesses.
    pub meta_llc_misses: u64,
    /// Metadata bytes maintained by the model.
    pub meta_bytes: u64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Aggregated and segregated rows.
    pub rows: Vec<LayoutRow>,
}

fn churn_params(scale: Scale) -> ChurnParams {
    ChurnParams {
        total_allocs: Scale(scale.0).apply(30_000),
        live_cap: 2048,
        size_range: (16, 512),
        touch_percent: 100,
        compute_per_step: 40,
        ..ChurnParams::default()
    }
}

/// Runs the experiment.
pub fn run_fig2(scale: Scale) -> Fig2 {
    let params = churn_params(scale);
    let mut events = Vec::new();
    churn::generate(&params, &mut |e| events.push(e));

    let rows = [LayoutModel::aggregated(), LayoutModel::segregated()]
        .into_iter()
        .map(|mut model| {
            let mut machine = Machine::new(MachineConfig::a72(1));
            let r = run(&mut machine, &mut model, events.iter().copied());
            LayoutRow {
                name: r.name,
                cycles: r.wall_cycles,
                l1d_load_misses: r.total.l1d_load_misses,
                user_llc_misses: r.total.user_llc_misses,
                meta_llc_misses: r.total.meta_llc_misses,
                meta_bytes: r.meta_bytes,
            }
        })
        .collect();
    Fig2 { rows }
}

impl Fig2 {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "layout",
            "cycles",
            "L1d-load-misses",
            "user-LLC-misses",
            "meta-LLC-misses",
            "meta-bytes",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.name.to_string(),
                sci(r.cycles as f64),
                sci(r.l1d_load_misses as f64),
                sci(r.user_llc_misses as f64),
                sci(r.meta_llc_misses as f64),
                r.meta_bytes.to_string(),
            ]);
        }
        format!(
            "Figure 2 (measured): metadata layout trade-off under identical placement\n{}\n\
             aggregated: links ride in the blocks (warm lines, zero extra space);\n\
             segregated: links in a decoupled index array (more space, offloadable).\n",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segregated_costs_space_aggregated_costs_lines() {
        let f = run_fig2(Scale(1));
        let agg = &f.rows[0];
        let seg = &f.rows[1];
        assert_eq!(agg.name, "Aggregated");
        assert_eq!(seg.name, "Segregated");
        // The trade-off the paper draws: segregated maintains strictly
        // more metadata space...
        assert!(seg.meta_bytes > agg.meta_bytes);
        // ...while aggregated's allocator traffic rides user lines, so
        // its user-data misses cannot be higher than segregated's by
        // much; the warm-line effect shows as fewer L1 misses on one side
        // or the other depending on reuse distance — assert both ran to
        // comparable scale rather than a fragile direction.
        assert!(agg.cycles > 0 && seg.cycles > 0);
        let ratio = agg.cycles as f64 / seg.cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "cycle ratio {ratio} diverged");
    }

    #[test]
    fn render_mentions_both_layouts() {
        let s = run_fig2(Scale(1)).render();
        assert!(s.contains("Aggregated") && s.contains("Segregated"));
    }
}
