//! `Ngm::handle()` is the one thing every application thread builds, so
//! what it allocates is counted: a handle holds one `Arc` into the tier
//! and one boxed slice of per-shard state, and everything else it
//! allocates is `register_client`'s (a request slot and a free ring per
//! shard). Under `#[global_allocator]` these blocks come from the
//! bootstrap arena, which is why the number is pinned.
//!
//! Counted per thread, so what the service threads allocate while they
//! adopt the new client does not leak into the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ngm_core::{CorePlacement, NgmConfig};

struct Counting;

std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations the calling thread makes inside one `Ngm::handle()`.
fn handle_allocs(shards: usize) -> u64 {
    let ngm = NgmConfig::new()
        .with_shards(shards)
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    // The tier's first handle: the worst case, since each runtime's
    // list of newly registered clients grows from empty.
    let before = ALLOCS.with(Cell::get);
    let handle = ngm.handle();
    let made = ALLOCS.with(Cell::get) - before;
    drop(handle);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
    made
}

#[test]
fn a_one_shard_handle_makes_at_most_six_allocations() {
    let made = handle_allocs(1);
    println!("one shard: {made} allocations");
    assert!(
        made <= 6,
        "Ngm::handle() on one shard made {made} allocations"
    );
}

#[test]
fn an_eight_shard_handle_makes_at_most_thirty_four_allocations() {
    let made = handle_allocs(8);
    println!("eight shards: {made} allocations");
    assert!(
        made <= 34,
        "Ngm::handle() on eight shards made {made} allocations"
    );
}
