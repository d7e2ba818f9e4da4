//! Liveness regressions under injected faults (release-mode).
//!
//! Gated on `--features faultinject`: each test arms the deterministic
//! fault hooks and proves the request path is hang-proof — a wedged
//! shard, a full ring with a dead consumer, or a shard killed mid-serve
//! must surface as *typed errors within the deadline* (or transparent
//! reroute/degradation at the tier level), never as a hung thread.
//! Every test's own completion is the no-hung-threads proof; the CI job
//! additionally caps wall-clock so a regression fails loudly.

#![cfg(feature = "faultinject")]

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ngm_core::{CorePlacement, NgmConfig};
use ngm_offload::ring::PushError;
use ngm_offload::{CallKind, OffloadRuntime, RuntimeConfig, Service, ServiceError};

/// Trivial service for the raw-runtime regressions.
#[derive(Debug)]
struct Echo;

impl Service for Echo {
    type Req = u64;
    type Resp = u64;
    type Post = u64;

    fn call(&mut self, req: u64) -> u64 {
        req
    }

    fn post(&mut self, _msg: u64) {}
}

/// Regression: a wedged (alive but not serving) shard used to hang the
/// caller forever in the response spin. It must now return
/// [`ServiceError::Deadline`] once the budget expires, and serve again
/// after the wedge clears.
#[test]
fn wedged_service_returns_typed_error_within_deadline() {
    let cfg = RuntimeConfig {
        core: None,
        deadline: Some(Duration::from_millis(20)),
        ..RuntimeConfig::new()
    };
    let rt = OffloadRuntime::try_start(Echo, cfg).expect("runtime starts");
    let mut client = rt.register_client();
    assert_eq!(
        client
            .publish(1, CallKind::Single)
            .and_then(|()| client.try_collect(std::mem::take)),
        Ok(1)
    );

    rt.fault_state().set_wedged(true);
    let t0 = Instant::now();
    match client
        .publish(2, CallKind::Single)
        .and_then(|()| client.try_collect(std::mem::take))
    {
        Err(ServiceError::Deadline { waited, .. }) => {
            assert!(waited >= Duration::from_millis(20), "budget honored");
        }
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "typed error well within bounds, not a hang"
    );

    rt.fault_state().set_wedged(false);
    assert_eq!(
        client
            .publish(3, CallKind::Single)
            .and_then(|()| client.try_collect(std::mem::take)),
        Ok(3),
        "shard recovered after unwedge"
    );
    drop(client);
    rt.try_shutdown().expect("clean shutdown");
}

/// Regression: `SpscRing::push` against a full ring whose consumer is
/// gone used to yield forever. A dead consumer must surface as
/// [`PushError::Disconnected`] immediately, handing the message back.
#[test]
fn full_ring_with_dead_consumer_disconnects() {
    let (mut tx, rx) = ngm_offload::spsc::<u64>(2);
    assert_eq!(tx.push(1), Ok(()));
    assert_eq!(tx.push(2), Ok(()));
    assert_eq!(tx.push(3), Err(PushError::Full(3)), "full, consumer alive");
    drop(rx);
    let t0 = Instant::now();
    assert_eq!(
        tx.push(4),
        Err(PushError::Disconnected(4)),
        "typed disconnect, message handed back"
    );
    assert!(t0.elapsed() < Duration::from_secs(1), "no retry spin");
}

/// Regression: a shard killed mid-serve while refilling a magazine used
/// to strand the refill caller. The kill must poison that channel,
/// surface at shutdown as the shard's panic, and the allocation must
/// complete on a survivor — at a partial batch and with the wire's full
/// 128 blocks riding the request.
#[test]
fn mid_refill_kill_fails_over_to_survivor() {
    for (batch, flush) in [(16, 8), (ngm_core::MAX_BATCH, ngm_core::MAX_BATCH)] {
        let ngm = NgmConfig::new()
            .with_shards(2)
            .with_batch(batch, flush)
            .with_placement(CorePlacement::Unpinned)
            .with_deadline(Some(Duration::from_millis(50)))
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        let class64 = ngm_heap::size_to_class(64).unwrap();
        let victim = h.class_route(class64);
        ngm.fault_state(victim).kill_next_call();

        // This alloc triggers the magazine refill batch that the kill
        // lands in; it must still succeed (rerouted), bounded by the
        // deadline.
        let t0 = Instant::now();
        let p = h
            .alloc(Layout::from_size_align(64, 8).unwrap())
            .expect("survivor serves the refill");
        assert!(t0.elapsed() < Duration::from_secs(10), "bounded, not hung");
        assert_eq!(h.magazine_len(class64), batch - 1, "a whole refill landed");
        // SAFETY: live block from this handle's allocator.
        unsafe { h.dealloc(p, Layout::from_size_align(64, 8).unwrap()) };
        drop(h);

        let down = ngm.shutdown();
        assert!(!down.clean(), "the mid-refill panic is reported");
        assert!(down.shards[victim].error.is_some());
        let survivor = &down.shards[1 - victim];
        assert_eq!(survivor.service.allocs, batch as u64, "{down:?}");
        assert_eq!(survivor.service.allocs, survivor.service.frees);
        assert_eq!(down.heap.live_blocks, 0, "nothing stranded");
    }
}

/// Regression: large blocks used to hash to a shard by layout. While
/// that shard was wedged their allocations deadlined over to the
/// survivor, but every free still hashed home — and once the wedge
/// cleared, the first rerouted free reached a heap that had never made
/// the block and killed its shard. Large blocks now never enter the room.
#[test]
fn wedged_shard_never_sees_a_large_block() {
    let ngm = NgmConfig::new()
        .with_shards(2)
        .with_placement(CorePlacement::Unpinned)
        .with_deadline(Some(Duration::from_millis(20)))
        .build()
        .expect("valid config");
    let mut h = ngm.handle();
    ngm.fault_state(1).set_wedged(true);
    for i in 0..8usize {
        let l = Layout::from_size_align((1 << 16) + 4096 * i, 8).unwrap();
        let p = h.alloc(l).expect("large blocks need no shard");
        // SAFETY: live block from this handle's allocator, freed once.
        unsafe { h.dealloc(p, l) };
    }
    ngm.fault_state(1).set_wedged(false);
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean(), "a shard met a foreign block: {down:?}");
    assert!(down.balanced(), "{down:?}");
    assert_eq!(down.runtime.deadlines, 0, "nothing waited on the wedge");
    assert_eq!(down.heap.large_allocs, 0);
}

/// Acceptance: with 1 of 4 shards wedged the whole time, an 8-client
/// churn completes (no hung threads — the joins are the proof), every
/// allocation succeeds (reroute or inline fallback), and shutdown
/// balances `allocs == frees` *including* fallback traffic.
fn wedged_tier_stress(batch_size: usize, flush_threshold: usize) {
    const CLIENTS: usize = 8;
    const SHARDS: usize = 4;
    const WEDGED: usize = 0;
    let iters: usize = std::env::var("NGM_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    let ngm = Arc::new(
        NgmConfig::new()
            .with_shards(SHARDS)
            .with_batch(batch_size, flush_threshold)
            .with_placement(CorePlacement::Unpinned)
            .with_deadline(Some(Duration::from_millis(5)))
            .build()
            .expect("valid config"),
    );
    ngm.fault_state(WEDGED).set_wedged(true);

    let joins: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let ngm = Arc::clone(&ngm);
            std::thread::spawn(move || {
                let mut h = ngm.handle();
                let mut held: Vec<(NonNull<u8>, Layout)> = Vec::new();
                for i in 0..iters {
                    let size = 16 * (1 + (i + t) % 8);
                    let l = Layout::from_size_align(size, 8).expect("valid");
                    let p = h.alloc(l).expect("wedged tier still serves");
                    // SAFETY: fresh block of `size` bytes.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), (i % 251) as u8, size) };
                    held.push((p, l));
                    if held.len() > 32 {
                        let (p, l) = held.swap_remove((i * 31) % held.len());
                        // SAFETY: live block from this allocator.
                        unsafe { h.dealloc(p, l) };
                    }
                }
                for (p, l) in held {
                    // SAFETY: live block from this allocator.
                    unsafe { h.dealloc(p, l) };
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("client completed — no hung threads");
    }

    // Clear the wedge so the shard drains its ring and orphan stack,
    // then wait for the reclaim before checking the books.
    ngm.fault_state(WEDGED).set_wedged(false);
    let deadline = Instant::now() + Duration::from_secs(30);
    while ngm.orphans_drained() < ngm.orphans_pushed() {
        assert!(
            Instant::now() < deadline,
            "orphans not reclaimed: {}/{}",
            ngm.orphans_drained(),
            ngm.orphans_pushed()
        );
        std::thread::yield_now();
    }

    let ngm = Arc::into_inner(ngm).expect("all clones dropped");
    let down = ngm.shutdown();
    assert!(down.clean(), "unwedged shard exits in order: {down:?}");
    assert_eq!(
        down.service.allocs,
        down.service.frees,
        "books balance including fallback: fallback_allocs={} {:?}",
        down.service.fallback_allocs,
        down.shards
            .iter()
            .map(|s| (s.shard, s.service.allocs, s.service.frees))
            .collect::<Vec<_>>()
    );
    assert_eq!(down.heap.live_blocks, 0, "heap fully reclaimed");
    assert_eq!(down.heap.live_bytes, 0);
    assert!(
        down.runtime.deadlines > 0,
        "the wedge was actually felt: {down:?}"
    );
}

#[test]
fn stress_wedged_shard_unbatched() {
    wedged_tier_stress(1, 1);
}

#[test]
fn stress_wedged_shard_magazines() {
    wedged_tier_stress(16, 8);
}
