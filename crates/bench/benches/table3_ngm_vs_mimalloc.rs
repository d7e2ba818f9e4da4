//! Criterion bench for Table 3: the real heaps behind the prototype
//! comparison — sharded (mimalloc-style) vs the offloaded NGM runtime —
//! on the xalanc workload (see `repro table3` for the simulated PMU view).

use criterion::{criterion_group, criterion_main, Criterion};
use ngm_bench::replay::{replay_heap, replay_ngm};
use ngm_workloads::xalanc::{self, XalancParams};

fn table3(c: &mut Criterion) {
    let events = xalanc::collect(&XalancParams::tiny());
    let mut g = c.benchmark_group("table3_ngm_vs_mimalloc");
    g.sample_size(10);
    g.bench_function("sharded_mimalloc_style", |b| {
        b.iter(|| {
            let sharded = ngm_heap::ShardedHeap::new(1);
            let mut h = sharded.handle(0);
            replay_heap(&mut h, events.iter().copied()).checksum
        })
    });
    // The paper's per-call handshake, as `repro table3`'s live half.
    g.bench_function("ngm_offloaded_batch_1_1", |b| {
        b.iter(|| {
            let ngm = ngm_core::NgmConfig::new()
                .with_batch(1, 1)
                .build()
                .expect("valid config");
            let mut h = ngm.handle();
            let cs = replay_ngm(&mut h, events.iter().copied()).checksum;
            drop(h);
            drop(ngm);
            cs
        })
    });
    g.finish();
}

criterion_group!(benches, table3);
criterion_main!(benches);
