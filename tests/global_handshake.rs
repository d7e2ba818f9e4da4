//! End-to-end test of the `GlobalAlloc` hook at the paper's per-call
//! handshake: this entire test binary runs on NextGen-Malloc at
//! `with_batch(1, 1)` — one round trip per small `malloc`, one ring post
//! per small `free`, through the same magazine and free-buffer code that
//! `global_allocator.rs` runs at the amortising default (32/32). The two
//! binaries are the two ends of the one request path. A separate binary
//! because the process-global runtime adopts the configuration of
//! whichever `NgmAllocator` allocates first.

use std::collections::HashMap;

use ngm_core::NgmAllocator;

#[global_allocator]
static ALLOC: NgmAllocator = NgmAllocator::with_config(ngm_core::NgmConfig::new().with_batch(1, 1));

#[test]
fn collections_churn_through_magazines() {
    let mut v: Vec<u64> = Vec::new();
    for i in 0..100_000u64 {
        v.push(i * 3);
    }
    assert_eq!(v.iter().sum::<u64>(), 3 * (99_999 * 100_000 / 2));
    v.truncate(10);
    v.shrink_to_fit();
    assert_eq!(v.len(), 10);

    let mut m: HashMap<String, String> = HashMap::new();
    for i in 0..5_000 {
        m.insert(format!("key-{i}"), format!("value-{}", i * 7));
    }
    assert_eq!(m.len(), 5_000);
    assert_eq!(m["key-1234"], "value-8638");
    m.clear();
    assert!(m.is_empty());
}

#[test]
fn many_threads_allocate_through_the_handshake() {
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut blobs: Vec<Vec<u8>> = Vec::new();
                for i in 0..2_000usize {
                    let size = 1 + (i * 31 + t * 17) % 4096;
                    blobs.push(vec![t as u8; size]);
                    if i % 2 == 0 {
                        blobs.swap_remove((i * 13) % blobs.len());
                    }
                }
                blobs.iter().map(|b| b.len()).sum::<usize>()
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    assert!(total > 0);
}

#[test]
fn large_allocations_still_roundtrip() {
    // Above SMALL_MAX these bypass the magazines as dedicated mappings.
    for mb in 1..=4usize {
        let v = vec![0xA5u8; mb << 20];
        assert_eq!(v[(mb << 20) - 1], 0xA5);
    }
}

#[test]
fn metrics_show_the_handshake_path_is_live() {
    // Force plenty of small-block traffic first.
    for _ in 0..64 {
        let v: Vec<u8> = vec![7; 640];
        drop(v);
    }
    let stats = ngm_core::global::global_stats().expect("runtime started");
    assert!(stats.calls_served >= 64, "every malloc is a round trip");
    let m = ngm_core::global::global_metrics().expect("runtime started");
    let calls = m
        .get_histogram("ngm_call_cycles")
        .expect("call histogram exported");
    assert!(calls.count() > 0, "call RTTs recorded");
    assert_eq!(
        m.get_histogram("ngm_refill_cycles").map(|h| h.count()),
        Some(0),
        "a one-block round trip is a call, not a refill"
    );
    assert!(
        m.get_gauge("ngm_magazine_occupancy").unwrap_or(0) >= 0,
        "occupancy gauge exported and never negative"
    );
}
