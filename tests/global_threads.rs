//! Thread churn under the `GlobalAlloc` hook: a program that merely
//! spawns and joins threads must not run the bootstrap arena dry.
//!
//! Everything a thread's handle allocates while it is being built (its
//! per-shard state, its client's request slot and ring bookkeeping) is
//! carved from the never-freed 16 MiB arena. When every exiting thread
//! dropped its handle and every new thread built another, that was
//! 1,664 B per thread and the process aborted at about the 10,040th
//! spawn. An exiting thread now parks its emptied handle for the next
//! one, so the arena burns per *peak* live thread.
//!
//! One test only: the process-global runtime and arena are shared, and
//! the bounds are about this binary's whole life.

use ngm_core::bootstrap::bootstrap_used;
use ngm_core::global::global_stats;
use ngm_core::NgmAllocator;

#[global_allocator]
static ALLOC: NgmAllocator = NgmAllocator::with_config(ngm_core::NgmConfig::new());

/// Spawns `n` threads one after another; each allocates and frees once.
fn churn(n: usize) {
    for i in 0..n {
        let sum = std::thread::spawn(move || {
            let v = vec![i as u8; 64 + i % 512];
            v.iter().map(|&b| b as usize).sum::<usize>()
        })
        .join()
        .expect("worker");
        assert_eq!(sum, (i as u8) as usize * (64 + i % 512));
    }
}

#[test]
fn twelve_thousand_threads_do_not_exhaust_the_bootstrap_arena() {
    churn(100);
    let arena_before = bootstrap_used();
    let clients_before = global_stats().expect("runtime started").clients_registered;

    churn(11_900);

    let arena_grew = bootstrap_used() - arena_before;
    let clients_grew = global_stats().expect("runtime started").clients_registered - clients_before;
    println!("after 11,900 more threads: arena +{arena_grew} B, clients +{clients_grew}");
    assert!(
        arena_grew < 64 * 1024,
        "the arena must burn per peak live thread, not per spawn: +{arena_grew} B"
    );
    assert!(
        clients_grew < 64,
        "exited threads' handles must be adopted, not rebuilt: +{clients_grew} clients"
    );
}
