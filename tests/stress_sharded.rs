//! Concurrency stress for the multi-shard service tier.
//!
//! The scenario from `stress_batched` — N churning threads, magazines,
//! buffered frees, cross-thread orphan frees — but against a 4-shard
//! tier, with every thread moving one shard's allocation classes to the
//! next shard mid-run (`route_class_to`; the move every routing trigger
//! makes). The shutdown check is per shard, not just global: each
//! shard's `allocs == frees` exactly, which can only hold if every free
//! routed back to the shard that owns the block's address even after the
//! alloc routing moved. That is the tier's core invariant (frees are a
//! pure function of address; routing only moves future allocations).
//!
//! Iteration count is bounded by `NGM_STRESS_ITERS` (per thread) so CI
//! can run this in release mode in well under a minute.

use std::alloc::Layout;
use std::collections::HashSet;
use std::ptr::NonNull;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use ngm_core::{CorePlacement, NgmConfig};
use ngm_heap::classes::{SizeClass, NUM_CLASSES};

const THREADS: usize = 4;
const SHARDS: usize = 4;

fn iters_per_thread() -> usize {
    std::env::var("NGM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

/// Sizes cycle through several small classes so the class → shard map
/// spreads traffic across the whole tier.
fn size_for(i: usize, t: usize) -> usize {
    16 + (i * 13 + t * 7) % 2048
}

fn run_scenario(batch_size: usize, flush_threshold: usize) {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(SHARDS)
            .with_batch(batch_size, flush_threshold)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );
    let live: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));

    // Ring of channels: thread t ships some blocks to thread (t+1) % N,
    // which frees them cross-thread (orphan path, no layout).
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..THREADS).map(|_| mpsc::channel::<usize>()).unzip();
    let mut txs: Vec<Option<mpsc::Sender<usize>>> = txs.into_iter().map(Some).collect();
    txs.rotate_left(1);

    let iters = iters_per_thread();
    let joins: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(t, rx)| {
            let tx = txs[t].take().expect("each sender moved once");
            let ngm = Arc::clone(&ngm);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let mut h = ngm.handle();
                let mut held: Vec<(usize, Layout)> = Vec::new();
                let mut allocs = 0u64;
                for i in 0..iters {
                    if i == iters / 2 {
                        // Force a migration mid-run: future allocations of
                        // every class on shard `t` move to the next shard,
                        // while everything already handed out must still
                        // free back to its original owner by address.
                        let from = t % SHARDS;
                        for class in (0..NUM_CLASSES as u16).map(SizeClass) {
                            if h.class_route(class) == from {
                                h.route_class_to(class, (from + 1) % SHARDS);
                            }
                        }
                    }
                    let size = size_for(i, t);
                    let layout = Layout::from_size_align(size, 8).expect("valid");
                    let p = h.alloc(layout).expect("alloc");
                    allocs += 1;
                    let addr = p.as_ptr() as usize;
                    assert!(
                        live.lock().expect("live set").insert(addr),
                        "address {addr:#x} handed out while already live"
                    );
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8, size) };
                    held.push((addr, layout));
                    if i % 2 == 1 {
                        let (addr, layout) = held.swap_remove((i * 17) % held.len());
                        if i % 8 == 1 {
                            tx.send(addr).expect("neighbor alive");
                        } else {
                            assert!(live.lock().expect("live set").remove(&addr));
                            let p = NonNull::new(addr as *mut u8).expect("nonnull");
                            // SAFETY: live block from this allocator.
                            unsafe { h.dealloc(p, layout) };
                        }
                    }
                }
                for (addr, layout) in held.drain(..) {
                    assert!(live.lock().expect("live set").remove(&addr));
                    let p = NonNull::new(addr as *mut u8).expect("nonnull");
                    // SAFETY: live block from this allocator.
                    unsafe { h.dealloc(p, layout) };
                }
                drop(tx);
                while let Ok(addr) = rx.recv() {
                    assert!(live.lock().expect("live set").remove(&addr));
                    let p = NonNull::new(addr as *mut u8).expect("nonnull");
                    // SAFETY: live small block relinquished cross-thread.
                    unsafe { ngm.orphan_push(p) };
                }
                drop(h); // Flushes buffered frees, returns magazine stash.
                allocs
            })
        })
        .collect();

    let mut app_allocs = 0u64;
    for j in joins {
        app_allocs += j.join().expect("worker");
    }
    assert_eq!(app_allocs, (THREADS * iters_per_thread()) as u64);
    assert!(live.lock().expect("live set").is_empty());

    // Orphans drain on each shard's idle hook; wait for all stacks.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while ngm.orphans_drained() < ngm.orphans_pushed() {
        assert!(
            std::time::Instant::now() < deadline,
            "orphan stacks not drained: {}/{}",
            ngm.orphans_drained(),
            ngm.orphans_pushed()
        );
        std::thread::yield_now();
    }

    let ngm = Arc::into_inner(ngm).expect("all clones dropped");
    let down = ngm.shutdown();

    // Every shard came down clean and balanced its own books exactly —
    // the per-shard form of the global invariant.
    assert!(down.clean(), "no shard reported an error");
    assert!(
        down.balanced(),
        "some shard's allocs != frees: {:?}",
        down.shards
            .iter()
            .map(|s| (s.shard, s.service.allocs, s.service.frees))
            .collect::<Vec<_>>()
    );
    let active = down.shards.iter().filter(|s| s.service.allocs > 0).count();
    assert!(active > 1, "traffic spread across the tier, got {active}");

    // Global accounting still holds across the tier.
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.service.app_allocs(), app_allocs);
    assert_eq!(down.service.failures, 0);
    assert_eq!(down.heap.live_blocks, 0, "heap fully reclaimed");
    assert_eq!(down.heap.live_bytes, 0);
    assert_eq!(down.runtime.magazine_occupancy, 0, "gauge settles at zero");
}

#[test]
fn stress_sharded_magazines() {
    run_scenario(16, 8);
}

#[test]
fn stress_sharded_unbatched() {
    run_scenario(1, 1);
}
