//! End-to-end test of the `GlobalAlloc` hook: this entire test binary —
//! `Vec`s, `String`s, hash maps, thread spawning, the test harness itself
//! — runs on NextGen-Malloc. This is the repro-note's "GlobalAlloc hook
//! plus core pinning" path exercised for real.

use std::collections::HashMap;

use ngm_core::NgmAllocator;

#[global_allocator]
static ALLOC: NgmAllocator = NgmAllocator::with_config(ngm_core::NgmConfig::new());

#[test]
fn collections_grow_and_shrink() {
    let mut v: Vec<u64> = Vec::new();
    for i in 0..100_000u64 {
        v.push(i * 3);
    }
    assert_eq!(v.iter().sum::<u64>(), 3 * (99_999 * 100_000 / 2));
    v.truncate(10);
    v.shrink_to_fit();
    assert_eq!(v.len(), 10);
}

#[test]
fn strings_and_maps() {
    let mut m: HashMap<String, String> = HashMap::new();
    for i in 0..5_000 {
        m.insert(format!("key-{i}"), format!("value-{}", i * 7));
    }
    assert_eq!(m.len(), 5_000);
    assert_eq!(m["key-1234"], "value-8638");
    m.retain(|_, v| v.len() % 2 == 0);
    m.clear();
    assert!(m.is_empty());
}

#[test]
fn many_threads_allocate_through_the_global_hook() {
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
fn large_allocations_roundtrip() {
    // Above SMALL_MAX these are dedicated mappings.
    for mb in 1..=8usize {
        let v = vec![0xA5u8; mb << 20];
        assert_eq!(v[(mb << 20) - 1], 0xA5);
    }
}

#[test]
fn a_string_growing_inside_its_class_keeps_its_address() {
    // Until the service starts serving, blocks come from the bootstrap
    // arena, whose exact-sized blocks always move on `realloc`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let served = || ngm_core::global::global_stats().map(|s| s.calls_served);
    while served().unwrap_or(0) == 0 {
        assert!(std::time::Instant::now() < deadline, "no call served");
        drop(std::hint::black_box(vec![0u8; 9_000]));
        std::thread::yield_now();
    }
    // 9,000 and 10,000 bytes share the 10,240-byte class: `realloc`
    // hands the block back as it is.
    let mut s = String::with_capacity(9_000);
    s.push_str("<output>");
    let at = s.as_ptr();
    s.reserve_exact(10_000 - s.len());
    assert!(s.capacity() >= 10_000);
    assert_eq!(s.as_ptr(), at);
    assert_eq!(s, "<output>");
    // The next class is another block.
    s.reserve_exact(12_000 - s.len());
    assert_ne!(s.as_ptr(), at);
    assert_eq!(s, "<output>");
}

#[test]
fn boxed_values_move_across_threads() {
    let b = Box::new([7u64; 1024]);
    let h = std::thread::spawn(move || b.iter().sum::<u64>());
    assert_eq!(h.join().expect("worker"), 7 * 1024);
}

#[test]
fn zero_sized_types_are_fine() {
    // ZSTs never reach the allocator, but exercise the edges around them.
    let v: Vec<()> = vec![(); 1000];
    assert_eq!(v.len(), 1000);
    let empty: Vec<u8> = Vec::new();
    drop(empty);
}

#[test]
fn runtime_stats_show_real_traffic() {
    // Force some traffic first so the runtime surely exists: a 10,000-byte
    // vector is a class block (10,240), so it is the service's to hand out.
    let v: Vec<u8> = std::hint::black_box(vec![1; 10_000]);
    drop(v);
    let stats = ngm_core::global::global_stats().expect("runtime started");
    assert!(stats.calls_served > 0, "service must have served calls");
    assert!(stats.clients_registered >= 1);
}
