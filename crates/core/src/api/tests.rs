//! Tests of the tier and its handles, across the `api` modules.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::time::Duration;

use ngm_heap::classes::{class_to_size, SizeClass, NUM_CLASSES, SMALL_MAX};
use ngm_heap::segment::PAGE_SIZE;
use ngm_heap::AllocError;
use ngm_offload::{ServiceError, ShardHealth};
use ngm_telemetry::trace::TraceEventKind;

use super::routing::RouteOp;
use super::{FailureReason, Ngm, NgmHandle, NgmShutdown};
use crate::config::{CorePlacement, NgmConfig};
use crate::service::MAX_BATCH;

fn layout(n: usize) -> Layout {
    Layout::from_size_align(n, 8).unwrap()
}

#[test]
fn alloc_free_roundtrip() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let p = h.alloc(layout(256)).unwrap();
    // SAFETY: fresh 256-byte block.
    unsafe {
        std::ptr::write_bytes(p.as_ptr(), 0x42, 256);
        assert_eq!(*p.as_ptr().add(255), 0x42);
        h.dealloc(p, layout(256));
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean());
    assert_eq!(down.service.app_allocs(), 1);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn the_room_returns_its_empty_segments_itself() {
    // Everything freed: the service thread unmapped every segment on its
    // way out, so the heap `shutdown()` hands back holds none and dropping
    // it is not a `munmap` on this thread.
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let blocks: Vec<_> = (0..64).map(|_| h.alloc(layout(1024)).unwrap()).collect();
    assert!(ngm.live_heap_stats().segments >= 1);
    for p in blocks {
        // SAFETY: blocks of this handle, freed once each.
        unsafe { h.dealloc(p, layout(1024)) };
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!((down.heap.segments, down.heap.pages_in_use), (0, 0));

    // A block the application never freed keeps its segment out of that
    // sweep: it is the heap's `Drop` that unmaps it. (The rest of the
    // handle's magazine goes back when the handle drops.)
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let _leaked = h.alloc(layout(1024)).unwrap();
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(down.heap.live_blocks, 1);
    assert_eq!((down.heap.segments, down.heap.pages_in_use), (1, 1));
}

#[test]
fn many_threads_allocate_concurrently() {
    let ngm = Ngm::start();
    let mut joins = Vec::new();
    for t in 0..4u8 {
        let mut h = ngm.handle();
        joins.push(std::thread::spawn(move || {
            let mut blocks = Vec::new();
            for i in 0..200usize {
                let l = layout(16 + (i * 13) % 1024);
                let p = h.alloc(l).unwrap();
                // SAFETY: fresh block of at least that size.
                unsafe { std::ptr::write_bytes(p.as_ptr(), t, 16) };
                blocks.push((p, l));
            }
            for (p, l) in blocks {
                // SAFETY: blocks from this handle's allocator.
                unsafe { h.dealloc(p, l) };
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let down = ngm.shutdown();
    assert_eq!(down.service.app_allocs(), 800);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
    assert_eq!(down.runtime.clients_registered, 4);
}

#[test]
fn zero_size_alloc_is_error() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    assert_eq!(
        h.alloc(Layout::from_size_align(0, 1).unwrap()),
        Err(AllocError::ZeroSize)
    );
}

#[test]
fn large_blocks_never_enter_the_room() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let l = layout(1 << 20);
    let p = h.alloc(l).unwrap();
    // SAFETY: 1 MiB block.
    unsafe {
        *p.as_ptr().add((1 << 20) - 1) = 9;
        h.dealloc(p, l);
    }
    drop(h);
    let down = ngm.shutdown();
    // Mapped and unmapped on this thread: no call, no post, nothing in
    // the shard's books — and the tier's merged books still count it.
    assert_eq!(down.runtime.calls_served, 0);
    assert_eq!(down.runtime.posts_served, 0);
    assert_eq!(down.shards[0].service.allocs, 0);
    assert_eq!(down.service.app_allocs(), 1);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.large_allocs, 0);
}

#[test]
fn live_heap_stats_carries_large_blocks() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    // The first size past the class table, and all off the page grid.
    let sizes = [SMALL_MAX + 1, 2 * SMALL_MAX - 157, (1 << 20) + 1];
    let blocks: Vec<_> = sizes
        .iter()
        .map(|&n| (h.alloc(layout(n)).unwrap(), layout(n)))
        .collect();
    let small = h.alloc(layout(64)).unwrap();
    let live = ngm.live_heap_stats();
    let rounded: usize = sizes
        .iter()
        .map(|&n| ngm_heap::sys::round_to_os_page(n))
        .sum();
    assert_eq!(live.large_allocs, 3);
    assert_eq!(live.large_bytes, rounded as u64, "page-rounded bytes");
    // SAFETY: blocks from this handle's allocator, freed once.
    unsafe {
        for (p, l) in blocks {
            h.dealloc(p, l);
        }
        h.dealloc(small, layout(64));
    }
    h.flush_frees();
    // Large frees are applied before `dealloc` returns; the small one
    // shows once the service publishes on an idle round.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ngm.live_heap_stats().total_frees != 4 {
        assert!(std::time::Instant::now() < deadline, "frees never applied");
        std::thread::yield_now();
    }
    let live = ngm.live_heap_stats();
    assert_eq!((live.large_allocs, live.large_bytes), (0, 0));
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.app_allocs(), 4);
}

#[test]
fn orphan_path_reclaims() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let p = h.alloc(layout(64)).unwrap();
    // SAFETY: small live block relinquished to the orphan stack.
    unsafe { ngm.orphan_push(p) };
    // Orphans are drained by the service's idle hook.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ngm.orphans_drained() == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(down.service.orphans_reclaimed, 1);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn latency_histograms_capture_alloc_and_free() {
    // The per-call protocol: every alloc a call, every free a post, and
    // traced, so every one is timed.
    let ngm = batched(1, 1).with_trace_capacity(256).build().unwrap();
    let mut h = ngm.handle();
    for _ in 0..32 {
        let p = h.alloc(layout(64)).unwrap();
        // SAFETY: block from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
    }
    let calls = ngm.telemetry().call_cycles.snapshot();
    let posts = ngm.telemetry().post_cycles.snapshot();
    assert_eq!(calls.count(), 32);
    assert_eq!(posts.count(), 32);
    assert!(calls.p50() <= calls.p99());
}

#[test]
fn tracing_records_allocs_and_frees_with_sizes() {
    let ngm = NgmConfig::new().with_trace_capacity(256).build().unwrap();
    let mut h = ngm.handle();
    let p = h.alloc(layout(96)).unwrap();
    // SAFETY: block from this handle's allocator.
    unsafe { h.dealloc(p, layout(96)) };
    let drain = ngm.telemetry().drain_trace();
    let allocs: Vec<_> = drain
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Alloc)
        .collect();
    let frees: Vec<_> = drain
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Free)
        .collect();
    assert_eq!(allocs.len(), 1);
    assert_eq!(allocs[0].a, 96, "alloc event carries the size");
    assert_eq!(frees.len(), 1);
    assert_eq!(frees[0].a, 96, "free event carries the size");
}

#[test]
fn metrics_include_heap_series_after_idle_publish() {
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let p = h.alloc(layout(128)).unwrap();
    // The watch refreshes on the service's idle rounds.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ngm.live_heap_stats().live_blocks == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let m = ngm.metrics();
    // The heap sees the whole refill: stashed blocks are live to it.
    assert_eq!(m.get_gauge("ngm_heap_live_blocks"), Some(MAX_BATCH as i64));
    assert_eq!(
        m.get_counter("ngm_heap_allocs_total"),
        Some(MAX_BATCH as u64)
    );
    assert_eq!(m.get_gauge("ngm_service_shards"), Some(1));
    assert!(m.get_histogram("ngm_call_cycles").is_some());
    // SAFETY: block from this handle's allocator.
    unsafe { h.dealloc(p, layout(128)) };
}

fn batched(batch_size: usize, flush_threshold: usize) -> NgmConfig {
    NgmConfig::new().with_batch(batch_size, flush_threshold)
}

#[test]
fn a_pop_that_collects_a_refill_is_traced_once_right_after_it() {
    let ngm = batched(8, 8).with_trace_capacity(256).build().unwrap();
    let mut h = ngm.handle();
    let blocks: Vec<_> = (0..9).map(|_| h.alloc(layout(64)).unwrap()).collect();
    let seq: String = ngm
        .telemetry()
        .drain_trace()
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::Refill => Some('R'),
            TraceEventKind::Alloc => Some('A'),
            _ => None,
        })
        .collect();
    // The first alloc tops up with a round trip, the eighth empties the
    // magazine and sends the next refill ahead, and the ninth collects
    // it: a collecting pop's `Alloc` follows its `Refill`, once.
    assert_eq!(seq, "RAAAAAAAARA");
    for p in blocks {
        // SAFETY: blocks from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
    }
}

#[test]
fn batched_roundtrip_balances_at_shutdown() {
    let ngm = batched(16, 8).build().unwrap();
    let mut h = ngm.handle();
    let mut blocks = Vec::new();
    for _ in 0..100 {
        let p = h.alloc(layout(64)).unwrap();
        // SAFETY: fresh 64-byte block.
        unsafe { std::ptr::write_bytes(p.as_ptr(), 0x5A, 64) };
        blocks.push(p);
    }
    for p in blocks {
        // SAFETY: blocks from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(
        down.service.batch_refills > 0,
        "magazine path was exercised"
    );
    assert_eq!(
        down.service.allocs, down.service.frees,
        "every refilled block came back"
    );
    assert_eq!(
        down.service.app_allocs(),
        100,
        "app-visible allocs separable from unused stash"
    );
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn two_shards_keep_one_ledger_and_count_each_trip_once() {
    // Blocks freed in another order than they were allocated, over two
    // shards: the per-shard ledger still balances.
    let ngm = batched(8, 4).with_shards(2).build().unwrap();
    let mut h = ngm.handle();
    let mut blocks: Vec<_> = (0..60).map(|_| h.alloc(layout(128)).unwrap()).collect();
    blocks.sort_by_key(|p| (p.as_ptr() as usize) % 3);
    for p in blocks {
        // SAFETY: block from this handle's tier, freed once.
        unsafe { h.dealloc(p, layout(128)) };
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.balanced(), "{down:?}");
    assert_eq!(down.heap.live_blocks, 0);

    // One path also means one telemetry population: a fixed op sequence
    // counts exactly its round trips and traces exactly its events.
    let ngm = batched(8, 4)
        .with_shards(2)
        .with_placement(CorePlacement::Unpinned)
        .with_trace_capacity(8192)
        .build()
        .unwrap();
    let mut h = ngm.handle();
    // Magazine classes, plus a large layout mapped inline.
    let layouts = [layout(128), layout(48), layout(1 << 20)];
    let blocks: Vec<_> = (0..90)
        .map(|i| {
            let l = layouts[i % 3];
            (h.alloc(l).unwrap(), l)
        })
        .collect();
    for (p, l) in blocks {
        // SAFETY: blocks from this handle's tier, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);
    let m = ngm.metrics();
    let count = |name: &str| m.get_histogram(name).map_or(0, |h| h.count());
    let mut events = [0u64; 3];
    for shard in 0..2 {
        // The service loop's drain events follow the schedule and are
        // their own kind; the client's events follow the op sequence.
        for e in ngm.shard_telemetry(shard).drain_trace().events {
            match e.kind {
                TraceEventKind::Alloc => events[0] += 1,
                TraceEventKind::Free => events[1] += 1,
                TraceEventKind::Refill => events[2] += 1,
                _ => {}
            }
        }
    }
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.app_allocs(), 90, "ledger == mallocs");
    assert_eq!(
        count("ngm_call_cycles"),
        0,
        "large allocations make no call"
    );
    assert_eq!(
        count("ngm_refill_cycles"),
        8,
        "two classes x ceil(30 / 8) refills"
    );
    assert_eq!(events, [90, 90, 8], "alloc / free / refill events");
}

/// 10,000 same-class alloc/free pairs; returns the tier's books and its
/// call- and refill-histogram counts (the timed trips: all of them on a
/// traced tier).
fn same_class_pairs(cfg: NgmConfig) -> (NgmShutdown, u64, u64) {
    const PAIRS: usize = 10_000;
    let ngm = cfg.build().unwrap();
    let mut h = ngm.handle();
    for _ in 0..PAIRS {
        let p = h.alloc(layout(64)).unwrap();
        // SAFETY: block from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
    }
    drop(h);
    let calls = ngm.telemetry().call_cycles.snapshot().count();
    let refills = ngm.telemetry().refill_cycles.snapshot().count();
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.app_allocs(), PAIRS as u64);
    assert_eq!(down.heap.live_blocks, 0);
    (down, calls, refills)
}

#[test]
fn default_tier_amortises() {
    // One refill per 128 pops, one flush per 128 frees, one magazine
    // return at drop.
    let (down, _, _) = same_class_pairs(NgmConfig::new());
    assert!(down.runtime.calls_served <= 10_000 / 100, "{down:?}");
    assert!(down.runtime.posts_served <= 10_000 / 100, "{down:?}");
}

#[test]
fn a_dry_magazine_has_its_next_refill_on_the_way() {
    let ngm = batched(8, 1).build().unwrap();
    let mut h = ngm.handle();
    let class = ngm_heap::size_to_class(64).unwrap();
    let mut blocks: Vec<_> = (0..8).map(|_| h.alloc(layout(64)).unwrap()).collect();
    assert_eq!(h.magazine_len(class), 0);
    // The pop that emptied the magazine published the next refill.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ngm.runtime_stats().calls_served < 2 {
        assert!(std::time::Instant::now() < deadline, "never served");
        std::thread::yield_now();
    }
    assert_eq!(ngm.runtime_stats().calls_served, 2);
    assert_eq!(h.magazine_occupancy(), 8, "in flight at its requested size");
    // The ninth alloc collects it and makes no trip of its own.
    blocks.push(h.alloc(layout(64)).unwrap());
    assert_eq!(h.magazine_len(class), 7);
    assert_eq!(ngm.runtime_stats().calls_served, 2);
    for p in blocks {
        // SAFETY: blocks from this handle's allocator, freed once.
        unsafe { h.dealloc(p, layout(64)) };
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.runtime.calls_served, 2);
}

#[test]
fn a_refill_in_flight_goes_home_at_drop() {
    let ngm = batched(16, 1).build().unwrap();
    let mut h = ngm.handle();
    let blocks: Vec<_> = (0..16).map(|_| h.alloc(layout(64)).unwrap()).collect();
    for p in blocks {
        // SAFETY: blocks from this handle's allocator, freed once.
        unsafe { h.dealloc(p, layout(64)) };
    }
    // The magazine is dry and its next refill is in flight: dropping
    // the handle collects it and sends all 16 blocks home unused.
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.app_allocs(), 16);
    assert_eq!(down.service.magazine_returned, 16, "{down:?}");
    assert_eq!(down.runtime.calls_served, 2);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn batch_one_is_the_paper_handshake_through_the_magazine_path() {
    let (down, calls, refills) = same_class_pairs(batched(1, 1).with_trace_capacity(256));
    assert_eq!(down.runtime.calls_served, 10_000);
    assert_eq!(down.service.batch_refills, 10_000);
    assert_eq!(calls, 10_000, "single-block refills are calls");
    assert_eq!(refills, 0);
    assert_eq!(down.service.magazine_returned, 0);
}

/// One block of every class through `cfg`; `stashed(size, left)`
/// sees what the first alloc's refill left in the magazine. Returns the
/// tier's books and its refill-histogram count (the timed refills: all
/// of them on a traced tier).
fn one_block_of_every_class(cfg: NgmConfig, stashed: impl Fn(usize, usize)) -> (NgmShutdown, u64) {
    let ngm = cfg.build().unwrap();
    let mut h = ngm.handle();
    let mut blocks = Vec::new();
    for c in 0..NUM_CLASSES {
        let class = SizeClass(c as u16);
        let size = class_to_size(class);
        blocks.push((h.alloc(layout(size)).unwrap(), layout(size)));
        stashed(size, h.magazine_len(class));
    }
    for (p, l) in blocks {
        // SAFETY: block from this handle's allocator, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);
    let refills = ngm.telemetry().refill_cycles.snapshot().count();
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.app_allocs(), NUM_CLASSES as u64);
    assert_eq!(down.service.batch_refills, NUM_CLASSES as u64);
    (down, refills)
}

#[test]
fn a_refill_is_at_most_one_page_of_bytes() {
    let traced = NgmConfig::new().with_trace_capacity(256);
    let (_, refills) = one_block_of_every_class(traced, |size, left| {
        // The first alloc refilled and popped one.
        let refill = left + 1;
        assert_eq!(refill, MAX_BATCH.min(PAGE_SIZE / size), "class {size}");
        assert!(refill * size <= PAGE_SIZE, "class {size} stashes {refill}");
        if size == 10_240 {
            assert_eq!(left, 5, "one page's worth minus the pop");
        }
    });
    assert_eq!(refills, NUM_CLASSES as u64);
}

#[test]
fn batch_one_pays_one_round_trip_in_every_class() {
    let (down, refills) = one_block_of_every_class(batched(1, 1), |size, left| {
        assert_eq!(left, 0, "class {size}");
    });
    assert_eq!(down.runtime.calls_served, NUM_CLASSES as u64);
    assert_eq!(refills, 0);
    assert_eq!(down.service.magazine_returned, 0);
}

#[test]
fn frees_below_the_flush_threshold_stay_buffered_until_flushed() {
    let ngm = batched(8, 8).build().unwrap();
    let mut h = ngm.handle();
    let a = h.alloc(layout(64)).unwrap();
    let b = h.alloc(layout(64)).unwrap();
    // SAFETY: blocks from this handle's allocator.
    unsafe {
        h.dealloc(a, layout(64));
        h.dealloc(b, layout(64));
    }
    assert_eq!(h.buffered_frees(), 2, "below threshold: nothing posted");
    assert_eq!(ngm.runtime_stats().posts_served, 0);
    h.flush_frees();
    assert_eq!(h.buffered_frees(), 0);
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(
        down.runtime.posts_served, 2,
        "one flush post, one magazine return"
    );
    assert!(down.balanced());
}

#[test]
fn each_refill_publishes_the_handles_whole_magazine_count() {
    // Three classes refilled in turn, so each refill also folds in the
    // pops of the others since their last refill.
    let ngm = batched(16, 1).build().unwrap();
    let mut h = ngm.handle();
    let mut blocks = Vec::new();
    let mut refills = 0;
    for size in [64, 64, 64, 128, 64, 256, 128]
        .into_iter()
        .cycle()
        .take(300)
    {
        let class = ngm_heap::size_to_class(size).unwrap();
        let refilling = h.magazine_len(class) == 0;
        blocks.push((h.alloc(layout(size)).unwrap(), size));
        if refilling {
            refills += 1;
            // The gauge was published before the pop that took `size`.
            assert_eq!(
                ngm.runtime_stats().magazine_occupancy,
                h.magazine_occupancy() as i64 + 1,
                "refill {refills}"
            );
        }
    }
    assert!(refills > 3, "{refills} refills");
    for (p, size) in blocks {
        // SAFETY: live blocks from this handle's allocator.
        unsafe { h.dealloc(p, layout(size)) };
    }
    drop(h);
    assert_eq!(ngm.runtime_stats().magazine_occupancy, 0);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
}

#[test]
fn magazine_occupancy_gauge_tracks_refills_and_drop() {
    let ngm = batched(16, 1).build().unwrap();
    let mut h = ngm.handle();
    let p = h.alloc(layout(64)).unwrap();
    // The refill published its full batch before the pop.
    assert_eq!(ngm.runtime_stats().magazine_occupancy, 16);
    assert_eq!(h.magazine_occupancy(), 15, "one block went to the app");
    // SAFETY: block from this handle's allocator.
    unsafe { h.dealloc(p, layout(64)) };
    drop(h);
    assert_eq!(
        ngm.runtime_stats().magazine_occupancy,
        0,
        "drop returns the stash and zeroes the gauge"
    );
    let down = ngm.shutdown();
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn refills_land_in_refill_histogram_not_call_histogram() {
    // Traced, so every trip is timed.
    let ngm = batched(8, 1).with_trace_capacity(256).build().unwrap();
    let mut h = ngm.handle();
    let mut blocks = Vec::new();
    for _ in 0..16 {
        blocks.push(h.alloc(layout(64)).unwrap());
    }
    let refills = ngm.telemetry().refill_cycles.snapshot();
    let calls = ngm.telemetry().call_cycles.snapshot();
    assert_eq!(refills.count(), 2, "16 allocs at batch 8 = 2 refills");
    assert_eq!(calls.count(), 0, "no per-op round trips happened");
    for p in blocks {
        // SAFETY: blocks from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
    }
}

#[test]
fn service_core_pin_recorded_when_possible() {
    let ngm = NgmConfig::new()
        .with_placement(CorePlacement::Base(0))
        .build()
        .unwrap();
    // Give the service thread a moment to start and pin.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let stats = ngm.runtime_stats();
    assert_eq!(stats.pinned_core, Some(0));
}

#[test]
fn tier_built_from_a_pinned_thread_sees_the_whole_host() {
    // The builder's own mask says one core; the process's says how many
    // there are, and `Auto` gives the service the last of them.
    let cores = ngm_offload::available_cores();
    let expected = (cores >= 2).then(|| cores - 1);
    // A pin that must land gets time to; one that must not, a moment to
    // show up wrongly.
    let patience = Duration::from_millis(if expected.is_some() { 5_000 } else { 50 });
    // A thread of its own, so the pin stays out of the harness's.
    let pinned_core = std::thread::spawn(move || {
        ngm_offload::pin_current_thread(0).expect("core 0 exists");
        let ngm = Ngm::start();
        let deadline = std::time::Instant::now() + patience;
        while ngm.runtime_stats().pinned_core.is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        ngm.runtime_stats().pinned_core
    })
    .join()
    .expect("builder thread");
    assert_eq!(pinned_core, expected);
}

// ---- sharded-tier tests ----

/// Stops `shard`'s service thread and waits until it has exited, so its
/// death is observable through the closed rings.
fn stop_and_wait(ngm: &Ngm, shard: usize) {
    ngm.stop_shard(shard);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while ngm.shard_health(shard) != ShardHealth::Down {
        assert!(std::time::Instant::now() < deadline, "shard never stopped");
        std::thread::yield_now();
    }
}

fn sharded(n: usize) -> NgmConfig {
    // Unpinned: CI machines rarely have a spare core per shard, and
    // pinning is orthogonal to what these tests check.
    NgmConfig::new()
        .with_shards(n)
        .with_placement(CorePlacement::Unpinned)
}

#[test]
fn shards_balance_individually_at_shutdown() {
    let ngm = sharded(4).build().unwrap();
    assert_eq!(ngm.num_shards(), 4);
    let mut h = ngm.handle();
    let mut blocks = Vec::new();
    // Sizes spanning many classes so every shard sees traffic.
    for i in 0..400usize {
        let l = layout(16 << (i % 5));
        blocks.push((h.alloc(l).unwrap(), l));
    }
    for (p, l) in blocks {
        // SAFETY: blocks from this handle's allocator.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean());
    assert!(down.balanced(), "per-shard alloc/free imbalance: {down:?}");
    assert_eq!(down.service.app_allocs(), 400);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
    // More than one shard actually served allocations.
    let active = down.shards.iter().filter(|s| s.service.allocs > 0).count();
    assert!(active > 1, "traffic never spread: {down:?}");
}

#[test]
fn metrics_export_shard_series_and_renamed_fallback_counter() {
    let ngm = sharded(2).build().unwrap();
    let mut h = ngm.handle();
    let p = h.alloc(layout(64)).unwrap();
    // SAFETY: block from this handle's allocator.
    unsafe { h.dealloc(p, layout(64)) };
    let m = ngm.metrics();
    assert_eq!(m.get_counter("ngm_fallback_allocs_total"), Some(0));
    assert_eq!(m.get_counter("ngm_fallback_allocs"), None, "old name gone");
    assert_eq!(m.labeled_gauge_count("ngm_shard_calls_served"), 2);
    assert!(m.get_histogram("ngm_phase_queue_cycles").is_some());
    drop(h);
    ngm.shutdown();
}

/// Every class `h` routes to `shard`.
fn classes_on(h: &NgmHandle, shard: usize) -> Vec<SizeClass> {
    (0..NUM_CLASSES as u16)
        .map(SizeClass)
        .filter(|&c| h.class_route(c) == shard)
        .collect()
}

#[test]
fn pressure_moves_a_shards_classes_to_the_next_open_shard() {
    let ngm = sharded(3).build().unwrap();
    let mut h = ngm.handle();
    let (on0, on1, on2) = (classes_on(&h, 0), classes_on(&h, 1), classes_on(&h, 2));
    assert!(!on1.is_empty(), "some class routes to shard 1");
    h.note_pressure(1, NgmHandle::REBALANCE_PRESSURE);
    assert_eq!(classes_on(&h, 1), [], "shard 1 carries nothing");
    assert_eq!(classes_on(&h, 0), on0, "shard 0 untouched");
    let mut moved: Vec<_> = on1.iter().chain(&on2).copied().collect();
    moved.sort_by_key(|c| c.0);
    assert_eq!(
        classes_on(&h, 2),
        moved,
        "shard 1's classes went to shard 2"
    );
    assert_eq!(ngm.runtime_stats().rebalances, 1);
    assert_eq!(h.ends[1].pressure, 0, "the pressure resets");
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
}

#[test]
fn every_trigger_follows_the_one_rule() {
    let ngm = sharded(4).build().unwrap();
    let mut h = ngm.handle();
    let deadline = ServiceError::Deadline {
        shard: 1,
        waited: Duration::from_millis(1),
    };
    let stopped = ServiceError::ServiceStopped;
    let (on1, on2) = (classes_on(&h, 1), classes_on(&h, 2));
    // A refill deadline on shard 1 moves all of its classes, the refused
    // one among them, to shard 2.
    assert_eq!(h.route(1, deadline, RouteOp::Refill), Some(2));
    assert_eq!(classes_on(&h, 1), [], "nothing left on shard 1");
    let mut both: Vec<_> = on1.iter().chain(&on2).copied().collect();
    both.sort_by_key(|c| c.0);
    assert_eq!(classes_on(&h, 2), both, "all of shard 1's classes on 2");
    // Shard 2's death moves them, and its own, on to shard 3.
    assert_eq!(h.route(2, stopped, RouteOp::Refill), Some(3));
    assert_eq!(classes_on(&h, 2), [], "nothing left on shard 2");
    assert!(both.iter().all(|&c| h.class_route(c) == 3), "moved to 3");
    // Write off every shard but 3: the map ends on 3 alone, and a
    // refusal there has nowhere to go and moves nothing.
    assert_eq!(h.route(0, stopped, RouteOp::Refill), Some(1));
    assert_eq!(h.route(1, stopped, RouteOp::Post), Some(3));
    assert_eq!(classes_on(&h, 3).len(), NUM_CLASSES);
    let map = h.class_shard;
    assert_eq!(h.route(3, deadline, RouteOp::Post), None);
    assert_eq!(h.class_shard, map, "the map stays");
    let stats = ngm.runtime_stats();
    assert_eq!((stats.rebalances, stats.failovers), (1, 3), "{stats:?}");
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
}

#[test]
fn frees_route_home_after_rebalance() {
    // The routing-purity regression: allocate, move the class's alloc
    // route elsewhere, then free — the free must still reach the
    // allocating shard (by address), not the new route.
    let ngm = sharded(2).build().unwrap();
    let mut h = ngm.handle();
    let class = ngm_heap::size_to_class(64).unwrap();
    let home = h.class_route(class);
    let p = h.alloc(layout(64)).unwrap();
    h.note_pressure(home, NgmHandle::REBALANCE_PRESSURE);
    assert_ne!(h.class_route(class), home, "rebalance moved the route");
    let q = h.alloc(layout(64)).unwrap();
    // SAFETY: blocks from this handle's allocator.
    unsafe {
        h.dealloc(p, layout(64));
        h.dealloc(q, layout(64));
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.balanced(), "a free went to the wrong shard: {down:?}");
    assert_eq!(down.heap.live_blocks, 0);
    assert!(down.runtime.rebalances >= 1, "rebalance was recorded");
}

#[test]
fn magazine_returns_to_refilling_shard_after_rebalance() {
    // Regression for cross-shard magazine accounting: refill a
    // magazine from shard A, rebalance the class to shard B, then
    // drop the handle. The unused stash must return to A (its
    // refiller), keeping A's allocs == frees — returning it to the
    // class's *current* route would corrupt both shards' accounting.
    let ngm = sharded(2).with_batch(16, 1).build().unwrap();
    let mut h = ngm.handle();
    let class = ngm_heap::size_to_class(64).unwrap();
    let home = h.class_route(class);
    let p = h.alloc(layout(64)).unwrap(); // refills 16 from `home`
    assert!(h.magazine_len(class) > 0);
    h.note_pressure(home, NgmHandle::REBALANCE_PRESSURE);
    assert_ne!(h.class_route(class), home);
    // SAFETY: block from this handle's allocator.
    unsafe { h.dealloc(p, layout(64)) };
    drop(h); // returns the magazine — must go to `home`
    let down = ngm.shutdown();
    assert!(
        down.balanced(),
        "magazine returned to wrong shard: {down:?}"
    );
    assert_eq!(down.service.magazine_returned, 15);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn cross_thread_frees_route_by_address() {
    // Blocks allocated on one thread, freed on another with its own
    // handle (different rebalance state): address routing must send
    // every free to the allocating shard.
    let ngm = sharded(2).build().unwrap();
    let mut producer = ngm.handle();
    let mut consumer = ngm.handle();
    // Skew the consumer's routing so its class map disagrees.
    consumer.note_pressure(0, NgmHandle::REBALANCE_PRESSURE);
    let blocks: Vec<usize> = (0..100)
        .map(|i| {
            let l = layout(16 << (i % 4));
            producer.alloc(l).unwrap().as_ptr() as usize
        })
        .collect();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, addr) in blocks.into_iter().enumerate() {
                let l = layout(16 << (i % 4));
                // SAFETY: live blocks relinquished by the producer.
                unsafe { consumer.dealloc(NonNull::new(addr as *mut u8).unwrap(), l) };
            }
        });
    });
    drop(producer);
    let down = ngm.shutdown();
    assert!(down.balanced(), "cross-thread free misrouted: {down:?}");
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn dead_shard_fails_over_and_is_counted() {
    // Per-call handshake: nothing stashed, so the allocation after the
    // death has to go to a shard.
    let ngm = sharded(2).with_batch(1, 1).build().unwrap();
    let mut h = ngm.handle();
    // Blocks owned by each shard while both are alive.
    let class64 = ngm_heap::size_to_class(64).unwrap();
    let victim = h.class_route(class64);
    let doomed = h.alloc(layout(64)).unwrap();
    stop_and_wait(&ngm, victim);
    // Allocation of the victim's class fails over to the survivor.
    let p = h.alloc(layout(64)).unwrap();
    assert_ne!(
        h.class_route(class64),
        victim,
        "traffic moved off the dead shard"
    );
    // A free owed to the dead shard is dropped and counted, not lost
    // silently and not misapplied to a survivor.
    // SAFETY: blocks from this handle's allocator.
    unsafe {
        h.dealloc(doomed, layout(64));
        h.dealloc(p, layout(64));
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean(), "request_stop is an orderly exit");
    assert!(down.runtime.failovers >= 1, "failover recorded: {down:?}");
    assert_eq!(
        down.runtime.posts_dropped, 1,
        "the orphaned free was counted"
    );
    // The survivor stays exact; the victim is short exactly the
    // dropped free.
    let victim_stats = &down.shards[victim];
    assert_eq!(
        victim_stats.service.allocs - victim_stats.service.frees,
        1,
        "imbalance exactly accounts for the dropped free: {down:?}"
    );
    for s in &down.shards {
        if s.shard != victim {
            assert_eq!(s.service.allocs, s.service.frees, "{down:?}");
        }
    }
}

#[test]
fn stopped_shard_cannot_lose_large_blocks() {
    // Large blocks used to hash to a shard by layout: an allocation
    // failed over to the survivor while its free still hashed to the
    // stopped shard, leaking the mapping and unbalancing the survivor.
    let ngm = sharded(2).build().unwrap();
    let mut h = ngm.handle();
    stop_and_wait(&ngm, 1);
    for i in 0..16usize {
        let l = layout((1 << 16) + 4096 * i);
        let p = h.alloc(l).expect("large blocks need no shard");
        // SAFETY: fresh block of that size, freed once.
        unsafe {
            *p.as_ptr().add(l.size() - 1) = i as u8;
            h.dealloc(p, l);
        }
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.balanced(), "{down:?}");
    assert_eq!(down.runtime.posts_dropped, 0, "{down:?}");
    assert_eq!(down.heap.large_allocs, 0, "{down:?}");
    assert_eq!(down.service.app_allocs(), 16);
}

#[test]
fn a_handle_built_after_a_stop_serves_from_the_survivor() {
    // Handles register with every shard when they are built: one built
    // after a shard stopped finds that shard's ring closed, writes it
    // off on first contact, and serves everything from the survivor.
    let ngm = sharded(2).build().unwrap();
    stop_and_wait(&ngm, 1);
    let mut h = ngm.handle();
    let blocks: Vec<_> = (0..1_000usize)
        .map(|i| {
            let l = layout(16 << (i % 5));
            (h.alloc(l).unwrap(), l)
        })
        .collect();
    for (p, l) in blocks {
        // SAFETY: blocks from this handle's allocator, freed once.
        unsafe { h.dealloc(p, l) };
    }
    drop(h);
    assert_eq!(ngm.fallback_heap().allocs(), 0, "the survivor served all");
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.shards[1].service.allocs, 0, "{down:?}");
    assert!(down.shards[0].service.allocs >= 1_000, "{down:?}");
    assert_eq!(down.service.app_allocs(), 1_000);
    assert_eq!(down.runtime.failovers, 1, "written off once: {down:?}");
}

#[test]
fn routing_step_decision_table() {
    use RouteOp::{Post, Refill};
    /// What a refusal does to the handle when another shard exists.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Effect {
        /// Traffic rebalanced away (counted), with this failure event.
        Slow(FailureReason),
        /// Written off: `failed[]`, failover counted, a shard-death event.
        Dead,
    }
    use Effect::{Dead, Slow};
    let deadline = ServiceError::Deadline {
        shard: 0,
        waited: Duration::from_millis(1),
    };
    let class = ngm_heap::size_to_class(64).unwrap();
    let table = [
        (deadline, Refill, Slow(FailureReason::Deadline)),
        (deadline, Post, Slow(FailureReason::PostDeadline)),
        (ServiceError::ServiceStopped, Refill, Dead),
        (ServiceError::ServiceStopped, Post, Dead),
        (ServiceError::ServicePanicked, Refill, Dead),
    ];
    for (cause, op, effect) in table {
        // With no alternative shard the decision is `None` and no
        // allocation route can move.
        for shards in [2usize, 1] {
            let ngm = sharded(shards).build().unwrap();
            let mut h = ngm.handle();
            let from = h.class_route(class);
            let other = (from + 1) % shards;
            let alone = shards == 1;
            let row = format!("{cause:?} {op:?} on {shards} shard(s)");

            let expected = if alone { None } else { Some(other) };
            assert_eq!(h.route(from, cause, op), expected, "{row}");
            assert_eq!(h.class_route(class), other, "class_shard: {row}");
            assert_eq!(h.ends[from].failed, effect == Dead, "failed[]: {row}");
            let failure = match effect {
                Slow(reason) => reason,
                Dead => FailureReason::ShardDeath,
            };
            let failures: Vec<_> = ngm
                .failures()
                .iter()
                .map(|e| (FailureReason::from_code(e.a), e.b as usize))
                .collect();
            assert_eq!(failures, [(Some(failure), from)], "failures: {row}");
            let body = crate::observer::blackbox_json(&ngm);
            assert!(
                body.contains(&format!(
                    "\"reason\":\"{}\",\"shard\":{from},",
                    failure.label()
                )),
                "/blackbox: {row}: {body}"
            );
            let stats = ngm.runtime_stats();
            assert_eq!(stats.failovers, u64::from(effect == Dead), "{row}");
            let rebalanced = matches!(effect, Slow(_)) && !alone;
            assert_eq!(stats.rebalances, u64::from(rebalanced), "{row}");
            assert_eq!(h.ends[from].pressure, 0, "ring pressure: {row}");
            drop(h);
            let down = ngm.shutdown();
            assert!(down.clean() && down.balanced(), "{row}");
        }
    }
}

#[test]
fn dead_tier_degrades_to_inline_fallback() {
    // Liveness floor: with every shard stopped, small allocations are
    // served inline from the fallback heap instead of failing (or
    // hanging), frees route back to it by address, and shutdown
    // accounting still balances with the fallback folded in.
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    stop_and_wait(&ngm, 0);
    let p = h.alloc(layout(64)).expect("degraded alloc still serves");
    // SAFETY: fresh 64-byte block from the fallback heap.
    unsafe { std::ptr::write_bytes(p.as_ptr(), 0x66, 64) };
    assert!(ngm.fallback_heap().is_active());
    // Large layouts need no shard at all: the calling thread maps them.
    let big = h.alloc(layout(1 << 20)).expect("needs no shard");
    // The live view folds the same off-shard blocks the final books do.
    let live = ngm.live_heap_stats();
    assert_eq!((live.live_blocks, live.large_allocs), (1, 1), "{live:?}");
    // SAFETY: blocks from this handle's allocator.
    unsafe {
        h.dealloc(p, layout(64));
        h.dealloc(big, layout(1 << 20));
    }
    let live = ngm.live_heap_stats();
    assert_eq!((live.total_allocs, live.total_frees), (2, 2), "{live:?}");
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(down.heap, live, "live view and final books agree");
    assert_eq!(down.service.fallback_allocs, 1);
    assert_eq!(down.service.app_allocs(), 2);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_total(), 0);
}

#[test]
fn fallback_orphan_route_frees_inline() {
    // Ngm::orphan_push must recognize fallback-owned blocks and free
    // them inline — no shard's orphan stack can ever reclaim them.
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    stop_and_wait(&ngm, 0);
    let a = h.alloc(layout(64)).unwrap();
    let b = h.alloc(layout(64)).unwrap();
    // SAFETY: live fallback blocks, relinquished.
    unsafe {
        ngm.orphan_push(a);
        ngm.orphan_push(b);
    }
    assert_eq!(ngm.fallback_heap().frees(), 2);
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(down.service.fallback_allocs, 2);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn handle_api_is_source_compatible_with_single_shard() {
    // The whole single-shard test suite above runs through the same
    // NgmHandle; this spot-checks the sharded accessors degrade
    // sanely at n = 1.
    let ngm = Ngm::start();
    let h = ngm.handle();
    assert_eq!(ngm.num_shards(), 1);
    assert_eq!(h.class_route(ngm_heap::size_to_class(64).unwrap()), 0);
    drop(h);
    let down = ngm.shutdown();
    assert_eq!(down.shards.len(), 1);
    assert!(down.clean() && down.balanced());
}

// ---- fault-injection tests (deterministic, feature-gated) ----

#[cfg(feature = "faultinject")]
mod faults {
    use super::*;
    use ngm_offload::DEFAULT_RING_CELLS;
    use std::time::Duration;

    /// Frees that overrun a wedged shard's ring at `with_batch(1, 1)`,
    /// where one free is one post of one cell: the ring's cells, a full
    /// client-side buffer behind them, and one more.
    const OVERRUN: usize = DEFAULT_RING_CELLS + MAX_BATCH + 1;

    #[test]
    fn every_deadline_in_one_window_is_recorded() {
        // Five refills deadline on a wedged shard well inside 250 ms,
        // and every one is a failure event naming the wedged shard: no
        // edge is sampled away, however close together they come.
        let ngm = sharded(2)
            .with_batch(1, 1)
            .with_deadline(Some(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        let class64 = ngm_heap::size_to_class(64).unwrap();
        let victim = h.class_route(class64);
        ngm.fault_state(victim).set_wedged(true);
        let mut blocks = Vec::new();
        for _ in 0..5 {
            // Send the refill back at the wedge each time: it deadlines,
            // reroutes, and is served by the survivor.
            h.route_class_to(class64, victim);
            blocks.push(h.alloc(layout(64)).expect("rerouted around the wedge"));
        }
        ngm.fault_state(victim).set_wedged(false);
        let failures = ngm.failures();
        assert_eq!(failures.len(), 5, "{failures:?}");
        for e in &failures {
            assert_eq!(FailureReason::from_code(e.a), Some(FailureReason::Deadline));
            assert_eq!(e.b as usize, victim);
        }
        for p in blocks {
            // SAFETY: live blocks from this handle's allocator.
            unsafe { h.dealloc(p, layout(64)) };
        }
        drop(h);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.runtime.deadlines, 5, "{down:?}");
    }

    #[test]
    fn wedged_shard_reroutes_allocs_within_deadline() {
        // With one of two shards wedged (alive but not serving), a
        // request routed at it must deadline, reroute to the
        // survivor, and succeed — not hang and not write the shard
        // off as dead.
        let ngm = sharded(2)
            .with_deadline(Some(Duration::from_millis(20)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        let class64 = ngm_heap::size_to_class(64).unwrap();
        let victim = h.class_route(class64);
        ngm.fault_state(victim).set_wedged(true);
        let start = std::time::Instant::now();
        let p = h.alloc(layout(64)).expect("rerouted around the wedge");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "bounded, not a hang"
        );
        assert_ne!(h.class_route(class64), victim, "traffic moved off");
        // SAFETY: live block from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
        ngm.fault_state(victim).set_wedged(false);
        drop(h);
        let down = ngm.shutdown();
        assert!(down.clean(), "wedge cleared: orderly exit: {down:?}");
        assert!(down.runtime.deadlines >= 1, "expiry counted: {down:?}");
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn deadlined_frees_reroute_to_orphans_not_leak() {
        // Fill the wedged shard's free ring, then keep freeing: the
        // posts that deadline must land on the shard's orphan stack
        // and be reclaimed once the shard recovers, so the books
        // still balance at shutdown.
        let ngm = sharded(1)
            .with_batch(1, 1)
            .with_deadline(Some(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        let blocks: Vec<_> = (0..OVERRUN).map(|_| h.alloc(layout(64)).unwrap()).collect();
        ngm.fault_state(0).set_wedged(true);
        for p in blocks {
            // SAFETY: live blocks from this handle's allocator.
            unsafe { h.dealloc(p, layout(64)) };
        }
        ngm.fault_state(0).set_wedged(false);
        drop(h);
        let down = ngm.shutdown();
        assert!(down.clean());
        assert!(down.runtime.deadlines >= 1, "ring backpressure expired");
        assert_eq!(down.runtime.posts_dropped, 0, "nothing was lost");
        assert_eq!(down.service.allocs, down.service.frees, "{down:?}");
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn a_retracted_full_width_refill_takes_no_block() {
        // The service looks at the request and ignores it (the drop
        // fault), so the 128-block refill sits in the slot unclaimed
        // until the deadline retracts it; the allocation is served by
        // the fallback, and the room never handed out a block for it.
        let ngm = sharded(1)
            .with_deadline(Some(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        ngm.fault_state(0).set_drop_every(1);
        let p = h.alloc(layout(64)).expect("the fallback serves it");
        assert_eq!(ngm.fallback_heap().allocs(), 1);
        // SAFETY: block from this handle's tier, freed once.
        unsafe { h.dealloc(p, layout(64)) };
        drop(h);
        ngm.fault_state(0).set_drop_every(0);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.runtime.calls_served, 0, "never claimed: {down:?}");
        assert_eq!(down.shards[0].service.allocs, 0, "{down:?}");
        assert_eq!(down.runtime.posts_dropped, 0);
    }

    #[test]
    fn a_refill_retracted_at_its_deadline_publishes_and_records_nothing() {
        // Traced, so every trip is timed and the books show each one.
        let ngm = sharded(1)
            .with_batch(16, 1)
            .with_deadline(Some(Duration::from_millis(10)))
            .with_trace_capacity(256)
            .build()
            .unwrap();
        let mut h = ngm.handle();
        // One served refill, its magazine then drained but for one block:
        // 15 pops the gauge has not heard of yet.
        let mut blocks: Vec<_> = (0..15).map(|_| h.alloc(layout(64)).unwrap()).collect();
        assert_eq!(h.magazine_occupancy(), 1);
        let telemetry = ngm.telemetry();
        let books = || {
            let stats = ngm.runtime_stats();
            let completions: Vec<_> = [&telemetry.refill_cycles, &telemetry.call_cycles]
                .iter()
                .chain(&telemetry.phase_cycles.each_ref())
                .map(|h| h.snapshot().count())
                .collect();
            (stats.magazine_occupancy, completions)
        };
        // The service books a serve after publishing its response: wait
        // for the one refill's serve to land.
        while telemetry.phase_cycles[2].snapshot().count() < 1 {
            std::thread::yield_now();
        }
        let before = books();
        // Refills, calls, then the five phases, of which queue and
        // publish record nothing.
        assert_eq!(before, (16, vec![1, 0, 0, 1, 1, 0, 1]));
        // The service ignores the refill the draining pop sends ahead
        // until the next alloc's deadline retracts it; the fallback
        // serves that allocation.
        ngm.fault_state(0).set_drop_every(1);
        blocks.push(h.alloc(layout(64)).unwrap());
        assert_eq!(h.magazine_occupancy(), 16, "the refill in flight");
        blocks.push(h.alloc(layout(64)).expect("the fallback serves it"));
        ngm.fault_state(0).set_drop_every(0);
        assert_eq!(h.magazine_occupancy(), 0);
        assert_eq!(ngm.fallback_heap().allocs(), 1);
        assert_eq!(ngm.runtime_stats().deadlines, 1);
        assert_eq!(books(), before, "a retracted refill leaves no trace");
        for p in blocks {
            // SAFETY: live blocks from this handle's tier, freed once.
            unsafe { h.dealloc(p, layout(64)) };
        }
        drop(h);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
    }

    #[test]
    fn magazine_return_through_orphans_keeps_its_tag() {
        // `OVERRUN` allocs at batch 8 leave 7 blocks stashed when the
        // handle drops. With the shard wedged and its ring full of the
        // frees, that magazine return deadlines and goes home through
        // the orphan stack — where it must still read as "never handed
        // out", or `app_allocs()` counts blocks the application never
        // saw.
        const { assert!(OVERRUN % 8 == 1) }
        let ngm = sharded(1)
            .with_batch(8, 1)
            .with_deadline(Some(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        let blocks: Vec<_> = (0..OVERRUN).map(|_| h.alloc(layout(64)).unwrap()).collect();
        ngm.fault_state(0).set_wedged(true);
        for p in blocks {
            // SAFETY: live blocks from this handle's allocator.
            unsafe { h.dealloc(p, layout(64)) };
        }
        drop(h);
        ngm.fault_state(0).set_wedged(false);
        let down = ngm.shutdown();
        assert!(down.clean());
        assert_eq!(down.service.allocs, down.service.frees, "{down:?}");
        assert_eq!(down.service.app_allocs(), OVERRUN as u64, "{down:?}");
        assert_eq!(down.service.magazine_returned, 7, "{down:?}");
        assert!(down.service.orphans_reclaimed > 7, "went home as orphans");
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn wedged_tier_degrades_to_fallback_and_recovers() {
        // Every shard wedged: allocation exhausts reroutes and lands
        // on the inline fallback. After the wedge clears the tier
        // serves normally again and shutdown folds the fallback in.
        let ngm = sharded(2)
            .with_deadline(Some(Duration::from_millis(10)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        ngm.fault_state(0).set_wedged(true);
        ngm.fault_state(1).set_wedged(true);
        let p = h.alloc(layout(64)).expect("fallback keeps serving");
        assert!(ngm.fallback_heap().is_active());
        ngm.fault_state(0).set_wedged(false);
        ngm.fault_state(1).set_wedged(false);
        let q = h.alloc(layout(64)).expect("tier recovered");
        // SAFETY: live blocks; p is fallback-owned, q shard-owned.
        unsafe {
            h.dealloc(p, layout(64));
            h.dealloc(q, layout(64));
        }
        assert_eq!(ngm.fallback_heap().frees(), 1, "p routed home inline");
        drop(h);
        let down = ngm.shutdown();
        assert!(down.clean());
        assert!(down.service.fallback_allocs >= 1);
        assert_eq!(down.service.allocs, down.service.frees, "{down:?}");
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn killed_shard_mid_traffic_fails_over_cleanly() {
        // A shard that dies *by panic* mid-serve: the caller gets a
        // typed error path (failover to the survivor), the panic is
        // reported at shutdown, and the survivor stays balanced.
        let ngm = sharded(2)
            .with_deadline(Some(Duration::from_millis(50)))
            .build()
            .unwrap();
        let mut h = ngm.handle();
        let class64 = ngm_heap::size_to_class(64).unwrap();
        let victim = h.class_route(class64);
        ngm.fault_state(victim).kill_next_call();
        let p = h.alloc(layout(64)).expect("survivor serves");
        assert_ne!(h.class_route(class64), victim);
        // SAFETY: live block from this handle's allocator.
        unsafe { h.dealloc(p, layout(64)) };
        drop(h);
        let down = ngm.shutdown();
        assert!(!down.clean(), "the kill is reported, not swallowed");
        assert!(down.shards[victim].error.is_some());
        assert!(down.runtime.service_down);
        assert_eq!(down.heap.live_blocks, 0, "survivor + fallback exact");
    }
}
