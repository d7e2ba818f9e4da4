//! Cross-crate end-to-end tests: the same workload stream replayed
//! through every real allocator must compute identical results, and the
//! offloaded runtime must account for every byte.

use std::alloc::Layout;
use std::ptr::NonNull;

use ngm_bench::replay::{replay_heap, replay_ngm, replay_system};
use ngm_core::{Ngm, NgmConfig};
use ngm_heap::sys::thread_minor_faults;
use ngm_heap::{AggregatedHeap, Heap, SegregatedHeap, ShardedHeap};
use ngm_offload::WaitStrategy;
use ngm_workloads::xalanc::{self, XalancParams};
use ngm_workloads::{churn, xmalloc, Event};

fn xalanc_events() -> Vec<ngm_workloads::Event> {
    xalanc::collect(&XalancParams::tiny())
}

#[test]
fn all_real_allocators_compute_identically() {
    let events = xalanc_events();

    let mut seg = SegregatedHeap::new(1);
    let a = replay_heap(&mut seg, events.iter().copied());

    let mut agg = AggregatedHeap::new(2);
    let b = replay_heap(&mut agg, events.iter().copied());

    let sharded = ShardedHeap::new(1);
    let mut shard = sharded.handle(0);
    let c = replay_heap(&mut shard, events.iter().copied());

    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let d = replay_ngm(&mut h, events.iter().copied());
    drop(h);
    let down = ngm.shutdown();

    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.checksum, c.checksum);
    assert_eq!(a.checksum, d.checksum);
    assert_eq!(a.checksum, replay_system(events.iter().copied()).checksum);
    assert_eq!(down.service.app_allocs(), a.mallocs);
    assert_eq!(a.mallocs, a.frees);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
}

#[test]
fn the_xalanc_trace_is_all_class_blocks() {
    let events = xalanc::collect(&XalancParams::small());
    let biggest = events
        .iter()
        .filter_map(|e| match *e {
            ngm_workloads::Event::Malloc { size, .. } => Some(size as usize),
            _ => None,
        })
        .max()
        .expect("the trace allocates");
    // Its output strings are past 8 KiB and inside the class table.
    assert!(
        biggest > 8192 && biggest <= ngm_heap::SMALL_MAX,
        "{biggest}"
    );

    let ngm = Ngm::start();
    let mut h = ngm.handle();
    let ledger = || ngm.metrics().get_counter("ngm_heap_large_allocs_total");
    let out = replay_ngm(&mut h, events.into_iter());
    assert_eq!(ledger(), Some(0), "no block of the trace was a mapping");
    // One block past the table, beside it, still lands in the ledger.
    let l = std::alloc::Layout::from_size_align(ngm_heap::SMALL_MAX + 1, 8).expect("valid");
    let p = h.alloc(l).expect("large alloc");
    // SAFETY: block from this handle's allocator, freed once.
    unsafe { h.dealloc(p, l) };
    assert_eq!(ledger(), Some(1));
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(
        down.service.allocs - down.service.magazine_returned,
        out.mallocs + 1
    );
    assert_eq!(down.service.allocs, down.service.frees);
}

#[test]
fn ngm_accounts_for_every_operation_across_threads() {
    let ngm = NgmConfig::new()
        .with_client_wait(WaitStrategy::Backoff)
        .build()
        .expect("valid config");
    let threads = 4;
    let per_thread = 3_000u64;
    let joins: Vec<_> = (0..threads)
        .map(|t| {
            let mut h = ngm.handle();
            std::thread::spawn(move || {
                let events = churn::collect(&churn::ChurnParams {
                    total_allocs: per_thread as u32,
                    seed: t as u64,
                    ..churn::ChurnParams::tiny()
                });
                replay_ngm(&mut h, events.into_iter()).mallocs
            })
        })
        .collect();
    let total: u64 = joins.into_iter().map(|j| j.join().expect("worker")).sum();
    let down = ngm.shutdown();
    assert_eq!(total, threads as u64 * per_thread);
    assert_eq!(down.service.app_allocs(), total);
    assert_eq!(down.service.allocs, down.service.frees);
    assert_eq!(down.heap.live_blocks, 0);
    assert_eq!(down.runtime.clients_registered, threads as u64);
}

#[test]
fn sharded_heap_survives_thread_churn_with_cross_frees() {
    // Table 2's stream on the real sharded heap: every block is freed by
    // the thread after the one that allocated it, so each free crosses
    // shards through the remote queues.
    let events = xmalloc::collect(&xmalloc::XmallocParams::tiny());
    let sharded = std::sync::Arc::new(ShardedHeap::new(2));
    let mut h0 = sharded.handle(0);
    let mut h1 = sharded.handle(1);

    use std::alloc::Layout;
    use std::collections::HashMap;
    let mut live: HashMap<u64, (std::ptr::NonNull<u8>, Layout)> = HashMap::new();
    for e in &events {
        match *e {
            ngm_workloads::Event::Malloc { thread, id, size } => {
                let l = Layout::from_size_align(size.max(1) as usize, 8).expect("valid");
                let h = if thread % 2 == 0 { &mut h0 } else { &mut h1 };
                live.insert(id, (h.allocate(l).expect("alloc"), l));
            }
            ngm_workloads::Event::Free { thread, id } => {
                let (p, l) = live.remove(&id).expect("live");
                let h = if thread % 2 == 0 { &mut h0 } else { &mut h1 };
                // SAFETY: block live, freed exactly once (routing to the
                // owning shard happens inside).
                unsafe { h.deallocate(p, l) };
            }
            _ => {}
        }
    }
    assert!(live.is_empty());
    h0.drain_remote();
    h1.drain_remote();
    assert_eq!(h0.stats().live_blocks, 0);
    assert_eq!(h1.stats().live_blocks, 0);
    assert!(
        sharded.remote_frees() > 0,
        "migration produced remote frees"
    );
}

#[test]
fn simulated_and_real_placement_agree_on_density() {
    // The sim's NGM service heap and the real SegregatedHeap use the same
    // class table: consecutive same-size allocations should be equally
    // dense (same stride) in both worlds.
    let mut real = SegregatedHeap::new(9);
    let l = std::alloc::Layout::from_size_align(100, 8).expect("valid");
    let a = real.allocate(l).expect("alloc");
    let b = real.allocate(l).expect("alloc");
    let real_stride = (b.as_ptr() as usize).abs_diff(a.as_ptr() as usize);

    let mut machine = ngm_sim::Machine::new(ngm_simalloc::ModelKind::Ngm.machine(1));
    let mut model = ngm_simalloc::NgmModel::new(1);
    use ngm_simalloc::model::AllocModel;
    let x = model.malloc(&mut machine, 0, 100);
    let y = model.malloc(&mut machine, 0, 100);
    let sim_stride = x.abs_diff(y);

    assert_eq!(real_stride as u64, sim_stride, "class tables diverged");
    // SAFETY: both blocks live, freed once.
    unsafe {
        real.deallocate(a, l);
        real.deallocate(b, l);
    }
}

/// One pass of `events` through `h`, counting the minor faults the
/// calling thread takes: `.0` on block memory (inside an allocation or a
/// touch), `.1` anywhere in the pass. `live` is indexed by object id and
/// was written in full when it was made, so the harness takes none.
fn client_faults_over_a_pass(
    h: &mut ngm_core::NgmHandle,
    events: &[Event],
    live: &mut [Option<(NonNull<u8>, Layout)>],
) -> (u64, u64) {
    let start = thread_minor_faults();
    let (mut at, mut on_blocks) = (start, 0);
    for e in events {
        match *e {
            Event::Malloc { id, size, .. } => {
                let l = Layout::from_size_align(size as usize, 8).expect("valid layout");
                live[id as usize] = Some((h.alloc(l).expect("alloc"), l));
            }
            Event::Free { id, .. } => {
                let (p, l) = live[id as usize].take().expect("free of a live id");
                // SAFETY: block from this handle, freed once.
                unsafe { h.dealloc(p, l) };
            }
            Event::Touch {
                id, offset, len, ..
            } => {
                let (p, _) = live[id as usize].expect("touch of a live id");
                // SAFETY: the generator keeps touches inside the block.
                unsafe {
                    p.as_ptr()
                        .add(offset as usize)
                        .write_bytes(id as u8, len as usize)
                };
            }
            Event::Compute { .. } => continue,
        }
        let now = thread_minor_faults();
        if !matches!(e, Event::Free { .. }) {
            on_blocks += now - at;
        }
        at = now;
    }
    (on_blocks, at - start)
}

#[test]
fn the_client_of_a_tier_never_faults_on_a_block() {
    let events = xalanc::collect(&XalancParams::small());
    let ids = events.iter().filter_map(|e| match *e {
        Event::Malloc { id, .. } => Some(id as usize + 1),
        _ => None,
    });
    let mut live = vec![None; ids.max().expect("the trace allocates")];
    let ngm = Ngm::start();
    let mut h = ngm.handle();
    // Segments are mapped, and their one huge page first written, by the
    // service thread (`SegmentRef::create`), so the
    // client's first store into a block finds the page present — on the
    // cold pass as on every later one. What the client does pay for,
    // once, is the pages of its own free ring: 2,048 cells of 64 bytes,
    // 128 KiB, 32 pages. A pass posts some 440 full batches of 17 cells,
    // so the cold pass has been round the ring three times before it
    // ends and no later pass finds a page of it untouched.
    let passes: Vec<_> = (0..4)
        .map(|_| client_faults_over_a_pass(&mut h, &events, &mut live))
        .collect();
    println!("client minor faults per pass (on blocks, in all): {passes:?}");
    if ngm_heap::sys::thp_available() {
        assert!(passes.iter().all(|p| p.0 == 0), "{passes:?}");
        assert!(
            passes[1..].iter().all(|p| p.1 == 0),
            "a warm pass takes none at all: {passes:?}"
        );
    } else {
        println!("transparent huge pages are off on this host: bounds skipped");
    }
    drop(h);
    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced(), "{down:?}");
    assert_eq!(down.service.allocs, down.service.frees);
}
