//! Outside-in microprobes: each times calls into one layer's public
//! functions, nothing else running. They are the per-layer attribution
//! under the end-to-end ratios, never a result on their own. Every probe
//! that starts a service thread runs after the workload's tier is shut
//! down, so at most the client and one service thread are ever runnable.

use std::alloc::Layout;
use std::time::Instant;

use crate::adapter::{
    cycles_now, cycles_per_ns, fresh_heap, pin_current_thread_verified, scrape_metrics,
    size_to_class, spsc, tier_shutdown, ClientHandle, Heap, LatencyHistogram, OffloadRuntime,
    PushError, RuntimeConfig, Service, Tier,
};
use crate::stats::{median, Tail};
use crate::sys::with_starting_affinity;
use crate::Values;

/// Runs every probe; `service_core` is where service threads are pinned
/// (the host's last core, as `CorePlacement::Auto` chooses).
pub fn run_all(service_core: Option<usize>, out: &mut Values) {
    heap(out);
    ring(service_core, out);
    noop_service(service_core, out);
    tier(out);
    histogram(out);
}

fn ns_per(iters: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// `heap.`: the single-owner heap called inline.
fn heap(out: &mut Values) {
    const PAIRS: u64 = 2_000_000;
    let mut heap = fresh_heap();
    for (name, size) in [
        ("heap.pair_64b_ns", 64),
        ("heap.pair_1k_ns", 1024),
        ("heap.pair_8k_ns", 8192),
    ] {
        let l = Layout::from_size_align(size, 8).expect("valid layout");
        let pair = |heap: &mut crate::adapter::SegregatedHeap| {
            let p = heap.allocate(l).expect("probe allocation");
            // SAFETY: just allocated with `l`, freed once.
            unsafe { heap.deallocate(std::hint::black_box(p), l) };
        };
        pair(&mut heap); // the class's first page is assigned outside the timing
        out.set(
            name,
            ns_per(PAIRS, || (0..PAIRS).for_each(|_| pair(&mut heap))),
        );
    }

    const BATCHES: u64 = 100_000;
    let class = size_to_class(64).expect("64 bytes is a small class");
    let mut blocks = Vec::with_capacity(32);
    let per_batch = ns_per(BATCHES, || {
        for _ in 0..BATCHES {
            heap.allocate_batch(class, 32, &mut |p| blocks.push(p))
                .expect("probe batch");
            // SAFETY: the 32 live blocks just handed out, no duplicates.
            unsafe { heap.deallocate_batch(blocks.drain(..)) };
        }
    });
    out.set("heap.batch32_ns_per_block", per_batch / 32.0);
    drop(heap);

    // A heap's first allocation maps its first segment.
    let l = Layout::from_size_align(64, 8).expect("valid layout");
    let fresh: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let mut h = fresh_heap();
            let p = h.allocate(l).expect("probe allocation");
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            // SAFETY: just allocated with `l`, freed once.
            unsafe { h.deallocate(p, l) };
            us
        })
        .collect();
    out.set("heap.fresh_segment_us", median(&fresh));

    // Above the largest class a request is mapped on its own.
    let big = Layout::from_size_align(1 << 20, 8).expect("valid layout");
    let mut h = fresh_heap();
    let large: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let p = h.allocate(big).expect("probe allocation");
            // SAFETY: just allocated with `big`, freed once.
            unsafe { h.deallocate(p, big) };
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.set("heap.large_pair_us", median(&large));
}

/// `offload.`: the SPSC ring alone, on one thread and across two cores.
fn ring(service_core: Option<usize>, out: &mut Values) {
    const MSGS: u64 = 4_000_000;
    let (mut tx, mut rx) = spsc::<u64>(1024);
    let same = ns_per(MSGS, || {
        for i in 0..MSGS {
            let _ = tx.push(i);
            std::hint::black_box(rx.pop());
        }
    });
    out.set("offload.ring_push_pop_ns", same);

    let (mut tx, mut rx) = spsc::<u64>(1024);
    let consumer = with_starting_affinity(|| {
        std::thread::spawn(move || {
            if let Some(core) = service_core {
                let _ = pin_current_thread_verified(core);
            }
            let mut got = 0;
            while got < MSGS {
                match rx.pop() {
                    Some(v) => {
                        std::hint::black_box(v);
                        got += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        })
    });
    let stream = ns_per(MSGS, || {
        for i in 0..MSGS {
            let mut v = i;
            while let Err(PushError::Full(back) | PushError::Disconnected(back)) = tx.push(v) {
                v = back;
                std::hint::spin_loop();
            }
        }
        consumer.join().expect("ring consumer");
    });
    out.set("offload.ring_xcore_ns_per_msg", stream);
}

/// A service that does nothing: what is left is the slot and ring
/// protocol itself.
struct Noop;

impl Service for Noop {
    type Req = u64;
    type Resp = u64;
    type Post = u64;

    fn call(&mut self, req: u64) -> u64 {
        req
    }

    fn post(&mut self, msg: u64) {
        std::hint::black_box(msg);
    }
}

/// Starts a [`Noop`] service pinned like a one-shard tier.
fn start_noop(service_core: Option<usize>) -> OffloadRuntime<Noop> {
    let cfg = RuntimeConfig {
        core: service_core,
        ..RuntimeConfig::new()
    };
    with_starting_affinity(|| OffloadRuntime::try_start(Noop, cfg)).expect("probe service thread")
}

/// Percentiles, in cycles, of `calls` timed no-op round trips.
fn timed_calls(client: &mut ClientHandle<Noop>, calls: u64) -> Tail {
    let mut cycles: Vec<u64> = (0..calls)
        .map(|i| {
            let t = cycles_now();
            std::hint::black_box(client.call(i));
            cycles_now() - t
        })
        .collect();
    Tail::of(&mut cycles)
}

/// Median no-op round trip over a short sample, in nanoseconds: the
/// host's cross-core latency as this run found it. Printed with every
/// result, because on a shared host it moves between runs and the
/// round-trip-per-operation workloads move with it.
pub fn xcore_roundtrip_ns(service_core: Option<usize>) -> f64 {
    let rt = start_noop(service_core);
    let mut client = rt.register_client();
    let p50 = timed_calls(&mut client, 20_000).p50;
    drop(client);
    rt.shutdown();
    p50 as f64 / cycles_per_ns()
}

/// `offload.`: one synchronous round trip and one post against [`Noop`].
/// The round trip is the measured counterpart of the paper's §4.1
/// 67-cycle atomic handshake.
fn noop_service(service_core: Option<usize>, out: &mut Values) {
    const POSTS: u64 = 1_000_000;
    let rt = start_noop(service_core);
    let mut client = rt.register_client();
    timed_calls(&mut client, 10_000); // warm-up
    let tail = timed_calls(&mut client, 200_000);
    out.set("offload.noop_roundtrip_p50_cycles", tail.p50 as f64);
    out.set(
        "offload.noop_roundtrip_p50_ns",
        tail.p50 as f64 / cycles_per_ns(),
    );
    out.set(
        "offload.noop_roundtrip_p99_ns",
        tail.p99 as f64 / cycles_per_ns(),
    );
    out.set(
        "offload.noop_post_ns",
        ns_per(POSTS, || (0..POSTS).for_each(|i| client.post(i))),
    );
    drop(client);
    rt.shutdown();
}

/// `core.` and `telemetry.`: tier start and shutdown, the magazine fast
/// path, and one metrics scrape.
fn tier(out: &mut Values) {
    let (mut start_ms, mut stop_ms) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let t = Instant::now();
        let ngm = Tier::Default.build();
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        tier_shutdown(ngm);
        stop_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("core.tier_start_ms", median(&start_ms));
    out.set("core.tier_shutdown_ms", median(&stop_ms));

    const PAIRS: u64 = 2_000_000;
    let ngm = Tier::Magazine.build();
    let mut h = ngm.handle();
    let l = Layout::from_size_align(64, 8).expect("valid layout");
    let mut pair = || {
        let p = h.alloc(l).expect("probe allocation");
        // SAFETY: just allocated with `l`, freed once.
        unsafe { h.dealloc(std::hint::black_box(p), l) };
    };
    (0..10_000).for_each(|_| pair());
    out.set(
        "core.magazine_pair_ns",
        ns_per(PAIRS, || (0..PAIRS).for_each(|_| pair())),
    );
    let scrapes: Vec<f64> = (0..21)
        .map(|_| scrape_metrics(&ngm).as_nanos() as f64 / 1e3)
        .collect();
    out.set("telemetry.metrics_scrape_us", median(&scrapes));
    drop(h);
    tier_shutdown(ngm);
}

/// `telemetry.`: one histogram record, the cost every timed call pays.
fn histogram(out: &mut Values) {
    const RECORDS: u64 = 20_000_000;
    let h = LatencyHistogram::new();
    let per = ns_per(RECORDS, || {
        for i in 0..RECORDS {
            h.record(std::hint::black_box(i & 0xffff));
        }
    });
    std::hint::black_box(h.snapshot().count());
    out.set("telemetry.hist_record_ns", per);
}
