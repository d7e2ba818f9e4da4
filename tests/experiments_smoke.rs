//! Smoke tests over the full experiment harness: every table and figure
//! renders at reduced scale with its key invariant intact.

use ngm_bench::experiments::{ablations, fig1, fig2, model41, shards, table1, table2, table3};
use ngm_bench::Scale;
use ngm_workloads::xalanc::XalancParams;

#[test]
fn fig1_renders_with_ordering() {
    let f = fig1::from_results(ngm_bench::experiments::run_xalanc_baselines_with(
        &XalancParams::tiny(),
    ));
    let s = f.render();
    assert!(s.contains("Figure 1"));
    assert!(s.contains("normalized time"));
    assert_eq!(f.rows.len(), 4);
}

#[test]
fn table1_renders_all_counters() {
    let t = table1::from_results(ngm_bench::experiments::run_xalanc_baselines_with(
        &XalancParams::tiny(),
    ));
    let s = t.render();
    for metric in [
        "cycles",
        "instructions",
        "LLC-load-misses",
        "LLC-store-misses",
        "dTLB-load-misses",
        "dTLB-store-misses",
        "LLC-load-MPKI",
        "dTLB-load-MPKI",
    ] {
        assert!(s.contains(metric), "missing {metric}");
    }
}

#[test]
fn table2_renders_and_grows() {
    let t = table2::run(Scale(1));
    assert_eq!(t.cols.len(), 4);
    assert!(t.llc_load_growth() > 1.0, "misses must grow with threads");
    assert!(t.render().contains("Table 2"));
}

#[test]
fn fig2_trade_off_is_visible() {
    let f = fig2::run_fig2(Scale(1));
    assert_eq!(f.rows.len(), 2);
    let (agg, seg) = (&f.rows[0], &f.rows[1]);
    assert!(seg.meta_bytes > agg.meta_bytes, "segregated costs space");
    assert!(
        seg.meta_llc_misses <= agg.meta_llc_misses,
        "segregated keeps metadata misses off user-adjacent lines"
    );
}

#[test]
fn table3_mechanism_reproduces() {
    let t = table3::run_with(&XalancParams::tiny(), false);
    assert_eq!(t.cols.len(), 1 + table3::NGM_COLUMNS.len());
    // The pollution-reduction mechanism: NGM's app core sees fewer dTLB
    // misses than Mimalloc's.
    assert!(t.cols[1].app.dtlb_load_misses < t.cols[0].app.dtlb_load_misses);
    assert!(t.render().contains("Table 3"));
}

#[test]
fn model41_reproduces_paper_numbers() {
    let m = model41::run();
    assert!((m.model.required_miss_reduction() - 1.25).abs() < 0.01);
    let overhead = m.model.overhead_cycles() as f64;
    assert!((74e9..77e9).contains(&overhead));
}

#[test]
fn repro_batch_renders_and_crosses_breakeven() {
    // The `repro batch` case: measured batched front-end vs the per-call
    // handshake (`with_batch(1, 1)`),
    // printed next to the §4.1 model and the simulated sweep.
    let rows = ablations::measured_batched_frontend(2_000);
    assert_eq!(rows[0].batch, 1, "baseline row first");
    assert_eq!(
        rows[0].roundtrips_per_alloc, 1.0,
        "with_batch(1, 1): one per alloc"
    );
    // The break-even is crossed because a refill is paid once per batch.
    // Assert that cause exactly; whether it shows in cycles under a
    // parallel test runner is `repro batch`'s table to report.
    for r in rows.iter().filter(|r| r.batch >= 8) {
        assert!(
            r.roundtrips_per_alloc <= 1.0 / r.batch as f64 + 1.0 / 2_000.0,
            "batch {} paid {} service round trips per alloc",
            r.batch,
            r.roundtrips_per_alloc
        );
    }
    let s = ablations::render_batched(Scale(1), 500);
    assert!(s.contains("Ablation F"));
    assert!(s.contains("vs per-call"));
    assert!(s.contains("§4.1 model"));
    assert!(s.contains("Sim prediction"));
}

#[test]
fn ablation_core_types_cover_design_space() {
    let rows = ablations::core_types_with(&XalancParams::tiny());
    let labels: Vec<&str> = rows.iter().map(|r| r.label).collect();
    assert_eq!(
        labels,
        vec!["big out-of-order", "little in-order", "near-memory"]
    );
}

#[test]
fn ablation_atomics_sweep_is_monotonic_for_ngm() {
    let rows = ablations::atomic_latency_with(&XalancParams::tiny());
    assert!(
        rows.windows(2).all(|w| w[0].ngm_wall <= w[1].ngm_wall),
        "NGM wall must grow with atomic cost"
    );
}

#[test]
fn shards_ablation_divides_the_bottleneck() {
    // The `repro shards` case: at 8 clients the single service core is
    // saturated, and a 4-shard tier must simulate at least 1.5x faster —
    // with every live-runtime shard balancing allocs == frees exactly.
    let report = shards::run(Scale(1), false);
    assert_eq!(
        report.cells.len(),
        shards::SHARD_COUNTS.len() * shards::CLIENT_COUNTS.len()
    );
    let speedup = report.sim_speedup(4, 8);
    assert!(
        speedup >= 1.5,
        "4 shards vs 1 at 8 clients gave only {speedup:.2}x"
    );
    for row in &report.real {
        assert!(row.balanced, "{} shard(s) failed to balance", row.shards);
        let active = row.per_shard_allocs.iter().filter(|&&a| a > 0).count();
        assert_eq!(active, row.shards, "all shards took traffic");
    }
    let s = report.render();
    assert!(s.contains("Shards ablation"));
    assert!(s.contains("speedup at 8 clients"));
}
