//! Allocator shootout: one workload, every allocator in the repository —
//! the real heaps for wall-clock and the simulator models for PMU shape.
//!
//! ```sh
//! cargo run --release --example allocator_shootout [-- scale]
//! ```

use ngm_bench::replay::{replay_heap, replay_ngm};
use ngm_core::NgmConfig;
use ngm_heap::{AggregatedHeap, LockedHeap, SegregatedHeap, ShardedHeap};
use ngm_simalloc::{run_kind_warm, ModelKind};
use ngm_workloads::xalanc::{self, XalancParams};

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let params = XalancParams::small().scaled(scale);
    let (events, warmup) = xalanc::collect_with_warmup(&params);
    println!("workload: xalanc-like, {} events\n", events.len());

    // -- Real heaps, wall clock ------------------------------------------
    println!("real heaps (wall clock, this machine):");
    let mut checksum = None;
    let mut check = |name: &str, cs: u64, elapsed: std::time::Duration| {
        match checksum {
            None => checksum = Some(cs),
            Some(c) => assert_eq!(c, cs, "{name}: checksum diverged"),
        }
        println!("  {name:<34} {elapsed:?}");
    };

    let mut seg = SegregatedHeap::new(1);
    let r = replay_heap(&mut seg, events.iter().copied());
    check("segregated (single owner)", r.checksum, r.elapsed);

    let mut agg = AggregatedHeap::new(2);
    let r = replay_heap(&mut agg, events.iter().copied());
    check("aggregated (single owner)", r.checksum, r.elapsed);

    // Global-lock heap driven through its shared-reference API.
    let locked = LockedHeap::new(SegregatedHeap::new(3));
    let start = std::time::Instant::now();
    {
        // Adapter: LockedHeap's &self API wrapped into the Heap trait.
        struct Via<'a>(&'a LockedHeap<SegregatedHeap>);
        // SAFETY: defers to LockedHeap, which upholds the Heap contract
        // under its mutex.
        unsafe impl ngm_heap::Heap for Via<'_> {
            fn allocate(
                &mut self,
                l: std::alloc::Layout,
            ) -> Result<std::ptr::NonNull<u8>, ngm_heap::AllocError> {
                self.0.allocate(l)
            }
            unsafe fn deallocate(&mut self, p: std::ptr::NonNull<u8>, l: std::alloc::Layout) {
                // SAFETY: forwarded contract.
                unsafe { self.0.deallocate(p, l) }
            }
            fn stats(&self) -> ngm_heap::HeapStats {
                self.0.stats()
            }
        }
        let mut via = Via(&locked);
        let r = replay_heap(&mut via, events.iter().copied());
        check("global lock (ptmalloc-ish)", r.checksum, start.elapsed());
    }

    let sharded = ShardedHeap::new(1);
    let mut shard = sharded.handle(0);
    let r = replay_heap(&mut shard, events.iter().copied());
    check("sharded (mimalloc-ish)", r.checksum, r.elapsed);

    // The default tier amortises the handshake over a magazine; the
    // paper's per-call protocol is the same code at `with_batch(1, 1)`.
    for (name, cfg) in [
        ("NGM offloaded (default)", NgmConfig::new()),
        (
            "NGM offloaded (with_batch(1, 1))",
            NgmConfig::new().with_batch(1, 1),
        ),
    ] {
        let ngm = cfg.build().expect("valid config");
        let mut h = ngm.handle();
        let r = replay_ngm(&mut h, events.iter().copied());
        check(name, r.checksum, r.elapsed);
        drop(h);
        let down = ngm.shutdown();
        assert_eq!(down.heap.live_blocks, 0);
    }

    // -- Simulated PMU shape ----------------------------------------------
    println!("\nsimulated A72 (steady state, app cores):");
    println!(
        "  {:<16} {:>12} {:>10} {:>10}",
        "model", "wall cycles", "dTLB MPKI", "LLC MPKI"
    );
    for kind in [
        ModelKind::PtMalloc2,
        ModelKind::Jemalloc,
        ModelKind::TcMalloc,
        ModelKind::Mimalloc,
        ModelKind::Ngm,
    ] {
        let r = run_kind_warm(kind, 1, events.iter().copied(), warmup);
        let app = r.app_total(1);
        println!(
            "  {:<16} {:>12} {:>10.3} {:>10.3}",
            r.name,
            r.wall_cycles,
            app.dtlb_load_mpki(),
            app.llc_load_mpki()
        );
    }
}
