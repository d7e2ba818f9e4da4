//! Concurrency stress for the batched allocation front-end.
//!
//! N threads churn alloc/free through per-thread handles with magazines
//! and free buffering enabled, with a slice of every thread's blocks
//! freed *cross-thread* via the orphan stack. A shared live-set proves
//! every address is handed out at most once while live, every block is
//! fully writable, and the service/heap accounting balances exactly at
//! shutdown even though blocks sit in magazines and flush buffers along
//! the way. The same scenario also runs at `with_batch(1, 1)`, the paper's
//! per-call handshake through the same magazine path: one refill of one
//! block per alloc, nothing left stashed.
//!
//! Iteration count is bounded by `NGM_STRESS_ITERS` (per thread) so CI
//! can run this in release mode in well under a minute.

use std::alloc::Layout;
use std::collections::HashSet;
use std::ptr::NonNull;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use ngm_core::NgmConfig;

const THREADS: usize = 4;

fn iters_per_thread() -> usize {
    std::env::var("NGM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

/// Sizes cycle through several small classes (all under `SMALL_MAX`, so
/// every block is magazine- and orphan-eligible).
fn size_for(i: usize, t: usize) -> usize {
    16 + (i * 13 + t * 7) % 2048
}

struct Totals {
    app_allocs: u64,
    local_frees: u64,
    orphaned: u64,
}

/// Runs the churn scenario and checks the books balance at shutdown.
fn run_scenario(batch_size: usize, flush_threshold: usize) {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_batch(batch_size, flush_threshold)
            .build()
            .expect("valid config"),
    );
    // Addresses currently handed out to the application. Insert must
    // never collide: that would mean one live block handed out twice.
    let live: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));

    // Ring of channels: thread t ships some blocks to thread (t+1) % N,
    // which frees them through the orphan stack (context-less path).
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
                let mut totals = Totals {
                    app_allocs: 0,
                    local_frees: 0,
                    orphaned: 0,
                };
                for i in 0..iters {
                    let size = size_for(i, t);
                    let layout = Layout::from_size_align(size, 8).expect("valid");
                    let p = h.alloc(layout).expect("alloc");
                    totals.app_allocs += 1;
                    let addr = p.as_ptr() as usize;
                    assert!(
                        live.lock().expect("live set").insert(addr),
                        "address {addr:#x} handed out while already live"
                    );
                    // Every byte must be ours to write.
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8, size) };
                    // SAFETY: reading back the block we just wrote.
                    unsafe {
                        assert_eq!(*p.as_ptr(), (i % 251) as u8);
                        assert_eq!(*p.as_ptr().add(size - 1), (i % 251) as u8);
                    }
                    held.push((addr, layout));
                    // Retire one block roughly every other iteration so the
                    // working set stays bounded but reuse is constant.
                    if i % 2 == 1 {
                        let (addr, layout) = held.swap_remove((i * 17) % held.len());
                        if i % 8 == 1 {
                            // Cross-thread free: the neighbor orphans it.
                            tx.send(addr).expect("neighbor alive");
                        } else {
                            assert!(live.lock().expect("live set").remove(&addr));
                            let p = NonNull::new(addr as *mut u8).expect("nonnull");
                            // SAFETY: live block from this allocator.
                            unsafe { h.dealloc(p, layout) };
                            totals.local_frees += 1;
                        }
                    }
                }
                for (addr, layout) in held.drain(..) {
                    assert!(live.lock().expect("live set").remove(&addr));
                    let p = NonNull::new(addr as *mut u8).expect("nonnull");
                    // SAFETY: live block from this allocator.
                    unsafe { h.dealloc(p, layout) };
                    totals.local_frees += 1;
                }
                drop(tx);
                // Free everything the neighbor shipped us, via the orphan
                // stack (address-only, no layout — the service recovers
                // the class from the page descriptor).
                while let Ok(addr) = rx.recv() {
                    assert!(live.lock().expect("live set").remove(&addr));
                    let p = NonNull::new(addr as *mut u8).expect("nonnull");
                    // SAFETY: live small block relinquished to the stack.
                    unsafe { ngm.orphan_push(p) };
                    totals.orphaned += 1;
                }
                drop(h); // Flushes buffered frees, returns magazine stash.
                totals
            })
        })
        .collect();

    let mut app_allocs = 0u64;
    let mut local_frees = 0u64;
    let mut orphaned = 0u64;
    for j in joins {
        let t = j.join().expect("worker");
        app_allocs += t.app_allocs;
        local_frees += t.local_frees;
        orphaned += t.orphaned;
    }
    assert_eq!(app_allocs, (THREADS * iters_per_thread()) as u64);
    assert_eq!(app_allocs, local_frees + orphaned);
    assert!(live.lock().expect("live set").is_empty());

    // Orphans are drained only by the service's idle hook; wait for the
    // stack to empty before shutting down.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while ngm.orphans_drained() < ngm.orphans_pushed() {
        assert!(
            std::time::Instant::now() < deadline,
            "orphan stack not drained: {}/{}",
            ngm.orphans_drained(),
            ngm.orphans_pushed()
        );
        std::thread::yield_now();
    }

    let ngm = Arc::into_inner(ngm).expect("all clones dropped");
    let down = ngm.shutdown();
    let (svc, heap, rt) = (down.service, down.heap, down.runtime);
    assert!(down.shards.iter().all(|s| s.error.is_none()));

    // The books balance exactly, magazines and flush buffers included.
    assert_eq!(svc.allocs, svc.frees, "every block handed out came back");
    assert_eq!(
        svc.app_allocs(),
        app_allocs,
        "service allocs minus unused stash equals app-visible allocs"
    );
    assert_eq!(svc.orphans_reclaimed, orphaned);
    assert_eq!(svc.failures, 0);
    assert_eq!(heap.live_blocks, 0, "heap fully reclaimed");
    assert_eq!(heap.live_bytes, 0);
    assert_eq!(rt.clients_registered, THREADS as u64);
    assert_eq!(rt.magazine_occupancy, 0, "gauge settles at zero");

    assert!(svc.batch_refills > 0, "magazine path was exercised");
    if batch_size == 1 {
        assert_eq!(svc.batch_refills, app_allocs, "one refill per alloc");
        assert_eq!(svc.magazine_returned, 0, "a refill of one is never stashed");
    }
}

#[test]
fn stress_batched_magazines() {
    run_scenario(16, 8);
}

#[test]
fn stress_full_batch_and_flush() {
    run_scenario(32, 32);
}

#[test]
fn stress_batch_one_through_the_magazine_path() {
    run_scenario(1, 1);
}
