//! Criterion bench for ablation A: client wait strategy vs allocation
//! round-trip latency on the real offload runtime, under the paper's
//! per-call handshake (`with_batch(1, 1)`) so every alloc waits once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ngm_core::NgmConfig;
use ngm_offload::WaitStrategy;

fn ablation_wait(c: &mut Criterion) {
    let layout = std::alloc::Layout::from_size_align(64, 8).expect("valid");
    let mut g = c.benchmark_group("ablation_wait");
    g.sample_size(10);
    for (label, wait) in [
        ("spin", WaitStrategy::Spin),
        ("spin_yield", WaitStrategy::SpinYield { spins: 64 }),
        ("backoff", WaitStrategy::Backoff),
    ] {
        // On single-core machines a pure-spin client starves the service;
        // skip it there rather than benchmark scheduler timeouts.
        if matches!(wait, WaitStrategy::Spin) && ngm_offload::available_cores() < 2 {
            continue;
        }
        let ngm = NgmConfig::new()
            .with_batch(1, 1)
            .with_client_wait(wait)
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        g.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| {
                let p = h.alloc(layout).expect("alloc");
                // SAFETY: freed immediately, exactly once.
                unsafe { h.dealloc(p, layout) };
            })
        });
        drop(h);
        drop(ngm);
    }
    g.finish();
}

criterion_group!(benches, ablation_wait);
criterion_main!(benches);
