//! The paper's motivating workload end-to-end: the xalancbmk-style XML
//! pipeline replayed against the real offloaded allocator, with the
//! simulated PMU comparison alongside.
//!
//! ```sh
//! cargo run --release --example xml_pipeline [-- scale]
//! ```

use std::sync::Arc;

use ngm_bench::live::{finish, PAIRS};
use ngm_bench::replay::{paired_replay, replay_heap, replay_ngm};
use ngm_core::Ngm;
use ngm_heap::SegregatedHeap;
use ngm_simalloc::{run_kind_warm, ModelKind};
use ngm_workloads::xalanc::{self, XalancParams};
use ngm_workloads::StreamSummary;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let params = XalancParams::small().scaled(scale);
    let (events, warmup) = xalanc::collect_with_warmup(&params);
    let summary = StreamSummary::scan(events.iter().copied());
    println!(
        "workload: {} events, {} mallocs, {} frees, peak {} live objects",
        summary.events, summary.mallocs, summary.frees, summary.peak_live
    );
    let op_instr = (summary.mallocs + summary.frees) as f64 * 100.0;
    println!(
        "allocator ops are ~{:.1}% of instructions — the paper's \"only 2% of time\" regime\n",
        op_instr / (op_instr + summary.compute as f64) * 100.0
    );

    // -- Real replay: single-owner heap and offloaded NGM, over System ---
    let mut heap = SegregatedHeap::new(1);
    let direct = paired_replay(&events, || replay_heap(&mut heap, events.iter().copied()));
    println!("direct segregated heap : {direct}");

    let ngm = Arc::new(Ngm::start());
    let mut handle = ngm.handle();
    let offloaded = paired_replay(&events, || replay_ngm(&mut handle, events.iter().copied()));
    drop(handle);
    let down = finish(ngm);
    println!(
        "offloaded (NGM)        : {offloaded} (service on core {:?})",
        down.runtime.pinned_core
    );
    assert_eq!(down.service.app_allocs(), PAIRS as u64 * summary.mallocs);
    assert_eq!(down.heap.live_blocks, 0);

    // -- Simulated PMU view (the Table 1/3 machinery) ---------------------
    println!("\nsimulated A72 PMU counters (app cores, steady state):");
    for kind in [ModelKind::PtMalloc2, ModelKind::Mimalloc, ModelKind::Ngm] {
        let r = run_kind_warm(kind, 1, events.iter().copied(), warmup);
        let app = r.app_total(1);
        println!(
            "  {:<16} cycles {:>12}  dTLB-load-MPKI {:>6.3}  LLC-load-MPKI {:>6.3}",
            r.name,
            r.wall_cycles,
            app.dtlb_load_mpki(),
            app.llc_load_mpki()
        );
    }
    println!("\n(with fewer than two CPUs the wall-clock comparison timeshares the");
    println!(" service core; the simulated counters carry the paper's story)");
}
