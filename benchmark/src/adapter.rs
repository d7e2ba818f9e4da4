//! The one place the benchmark binds to the program.
//!
//! Every item of the repository's crates that the benchmark names is
//! imported here and nowhere else, so this file's `use` lines plus the
//! methods it calls are the public surface a refactor of the program
//! must keep source-compatible (README.md lists it). The benchmark only
//! calls public functions — it measures every layer from outside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr::NonNull;

pub use ngm_core::{Ngm, NgmConfig, NgmError, NgmHandle, SubmissionQueue};
pub use ngm_heap::{size_to_class, Heap, SegregatedHeap};
pub use ngm_offload::ring::PushError;
pub use ngm_offload::{
    available_cores, pin_current_thread_verified, spsc, ClientHandle, OffloadRuntime,
    RuntimeConfig, Service,
};
pub use ngm_telemetry::clock::{cycles_now, cycles_per_ns};
pub use ngm_telemetry::hist::LatencyHistogram;
pub use ngm_workloads::Event;

use crate::sys::with_starting_affinity;
use ngm_sim::{Machine, PmuCounters};
use ngm_simalloc::driver::{run_kind_warm, run_warm, RunResult};
use ngm_simalloc::ngm::{NgmModel, Protocol};
use ngm_simalloc::ModelKind;
use ngm_telemetry::hist::HistogramSnapshot;
use ngm_workloads::churn::{self, ChurnParams};
use ngm_workloads::xalanc::{self, XalancParams};

// ---------------------------------------------------------------------
// Allocators under replay
// ---------------------------------------------------------------------

/// What a replay loop drives: the reference allocator or one layer of
/// the program, each under the span names its calls are recorded as.
pub trait Alloc {
    /// Span name of an allocation call.
    const ALLOC_SPAN: &'static str;
    /// Span name of a deallocation call.
    const FREE_SPAN: &'static str;

    /// Allocates; `None` is a failed operation.
    fn alloc(&mut self, layout: Layout) -> Option<NonNull<u8>>;

    /// Frees a block.
    ///
    /// # Safety
    ///
    /// `ptr` came from `alloc` on this allocator with `layout` and is
    /// not used afterwards.
    unsafe fn free(&mut self, ptr: NonNull<u8>, layout: Layout);
}

/// The reference: `std::alloc::System`, the allocator a Rust program
/// gets when it chooses nothing.
pub struct SystemAlloc;

impl Alloc for SystemAlloc {
    const ALLOC_SPAN: &'static str = "system.alloc";
    const FREE_SPAN: &'static str = "system.dealloc";

    #[inline]
    fn alloc(&mut self, layout: Layout) -> Option<NonNull<u8>> {
        // SAFETY: replay layouts are never zero-sized.
        NonNull::new(unsafe { System.alloc(layout) })
    }

    #[inline]
    unsafe fn free(&mut self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr.as_ptr(), layout) }
    }
}

/// The offloaded allocator through its blocking front-end (`core`).
impl Alloc for NgmHandle {
    const ALLOC_SPAN: &'static str = "core.alloc";
    const FREE_SPAN: &'static str = "core.dealloc";

    #[inline]
    fn alloc(&mut self, layout: Layout) -> Option<NonNull<u8>> {
        NgmHandle::alloc(self, layout).ok()
    }

    #[inline]
    unsafe fn free(&mut self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { self.dealloc(ptr, layout) }
    }
}

/// The single-owner heap called inline (`heap`), no offload in between.
impl Alloc for SegregatedHeap {
    const ALLOC_SPAN: &'static str = "heap.allocate";
    const FREE_SPAN: &'static str = "heap.deallocate";

    #[inline]
    fn alloc(&mut self, layout: Layout) -> Option<NonNull<u8>> {
        self.allocate(layout).ok()
    }

    #[inline]
    unsafe fn free(&mut self, ptr: NonNull<u8>, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { self.deallocate(ptr, layout) }
    }
}

/// A fresh inline heap.
pub fn fresh_heap() -> SegregatedHeap {
    SegregatedHeap::new(1)
}

/// Live small blocks, bytes committed for them, mapped segments and the
/// fragmentation estimate of an inline heap.
pub fn heap_usage(heap: &SegregatedHeap) -> HeapUsage {
    HeapUsage::of(&heap.stats())
}

/// What the benchmark reads from a `HeapStats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapUsage {
    /// Live blocks, small and large.
    pub live_blocks: u64,
    /// Bytes of address space committed for small blocks plus live
    /// large-block bytes.
    pub committed_bytes: u64,
    /// Segments mapped.
    pub segments: u64,
    /// `HeapStats::fragmentation`.
    pub fragmentation: f64,
    /// Deallocations ever served.
    pub total_frees: u64,
}

impl HeapUsage {
    fn of(s: &ngm_heap::HeapStats) -> Self {
        HeapUsage {
            live_blocks: s.live_total(),
            committed_bytes: s.committed_bytes() + s.large_bytes,
            segments: s.segments,
            fragmentation: s.fragmentation(),
            total_frees: s.total_frees,
        }
    }
}

// ---------------------------------------------------------------------
// Workload generators
// ---------------------------------------------------------------------

/// Seed `xalanc_*` and `table3_sim` use when none is given.
pub fn xalanc_default_seed() -> u64 {
    XalancParams::default().seed
}

/// Seed `churn_inline` uses when none is given.
pub fn churn_default_seed() -> u64 {
    ChurnParams::default().seed
}

/// The `XalancParams::small()` stream of `xalanc_sync` / `xalanc_magazine`.
pub fn xalanc_small_events(seed: u64) -> Vec<Event> {
    xalanc::collect(&XalancParams {
        seed,
        ..XalancParams::small()
    })
}

/// The `XalancParams::default()` stream of `table3_sim`, with the index
/// where the simulator's warm-up prefix ends.
pub fn xalanc_full_events(seed: u64) -> (Vec<Event>, usize) {
    xalanc::collect_with_warmup(&XalancParams {
        seed,
        ..XalancParams::default()
    })
}

/// The `churn_inline` stream: 400,000 allocations of 16–1024 bytes with
/// up to 65,536 live at once (about 34 MB, nine segments or more), so
/// the heap's page and segment management is exercised, not only its
/// bin-head pop.
pub fn churn_events(seed: u64) -> Vec<Event> {
    churn::collect(&ChurnParams {
        threads: 1,
        total_allocs: 400_000,
        live_cap: 65_536,
        size_range: (16, 1024),
        free_percent: 45,
        touch_percent: 30,
        compute_per_step: 0,
        seed,
    })
}

// ---------------------------------------------------------------------
// The service tier
// ---------------------------------------------------------------------

/// The tier configurations the runtime workloads use. Placement is left
/// at `CorePlacement::Auto`: one shard lands on the host's last core,
/// provided the tier is built with the whole host in view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `NgmConfig::new()` as shipped: batch 1, so one slot round trip
    /// per malloc and one ring post per free.
    Default,
    /// `with_batch(32, 32)`: magazine refills and batched free posts.
    Magazine,
    /// The completion front-end's shape: one shard, `with_batch(2, 1)`,
    /// `with_inflight_limit(1024)`.
    Completion,
}

impl Tier {
    /// Starts the tier.
    ///
    /// # Panics
    ///
    /// Panics when the service thread cannot be spawned.
    pub fn build(self) -> Ngm {
        let cfg = match self {
            Tier::Default => NgmConfig::new(),
            Tier::Magazine => NgmConfig::new().with_batch(32, 32),
            Tier::Completion => NgmConfig::new()
                .with_shards(1)
                .with_batch(2, 1)
                .with_inflight_limit(1024),
        };
        with_starting_affinity(|| cfg.build()).expect("tier configuration is valid")
    }
}

/// Near-current usage of the tier's service heaps, from the mirror the
/// service publishes on idle rounds.
pub fn tier_heap_usage(ngm: &Ngm) -> HeapUsage {
    HeapUsage::of(&ngm.live_heap_stats())
}

/// Counters and histogram medians read back from a tier through its
/// public accessors; cumulative since the tier started.
#[derive(Debug, Clone, Default)]
pub struct TierReadback {
    /// Median cycles of the queue, claim, serve, publish and observe
    /// phases of a synchronous call; 0 for an empty histogram.
    pub phase_p50_cycles: [u64; 5],
    /// Median and 99th percentile round trip of unbatched calls.
    pub call_cycles: (u64, u64),
    /// Median round trip of batched calls (magazine refills).
    pub refill_p50_cycles: u64,
    /// Median submission-queue depth sampled at each pump.
    pub submit_depth_p50: u64,
    /// Share of service polling rounds that found no work.
    pub service_idle_fraction: f64,
    /// Times a client found its post ring full.
    pub post_full_retries: u64,
    /// Bounded retry iterations clients spent.
    pub retry_total: u64,
    /// Client operations that exhausted their deadline.
    pub deadlines: u64,
    /// Service wait-loop phase changes.
    pub wait_transitions: u64,
    /// Core the service thread was pinned to.
    pub service_pinned_core: Option<usize>,
}

/// Reads [`TierReadback`] from a running tier.
pub fn tier_readback(ngm: &Ngm) -> TierReadback {
    let t = ngm.telemetry();
    let p50 = |h: &LatencyHistogram| h.snapshot().p50();
    let call: HistogramSnapshot = t.call_cycles.snapshot();
    let s = ngm.runtime_stats();
    TierReadback {
        phase_p50_cycles: std::array::from_fn(|i| p50(&t.phase_cycles[i])),
        call_cycles: (call.p50(), call.p99()),
        refill_p50_cycles: p50(&t.refill_cycles),
        submit_depth_p50: p50(&t.submit_depth),
        service_idle_fraction: s.idle_fraction(),
        post_full_retries: s.post_full_retries,
        retry_total: s.retry_total,
        deadlines: s.deadlines,
        wait_transitions: s.wait_transitions,
        service_pinned_core: s.pinned_core,
    }
}

/// The tier's cumulative failure counters, readable while it runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierFailures {
    /// Client operations that exhausted their deadline.
    pub deadlines: u64,
    /// Messages dropped because the service was gone.
    pub posts_dropped: u64,
    /// Blocks allocated inline because the tier was unreachable.
    pub fallback_allocs: u64,
}

impl TierFailures {
    /// Reads the counters of a running tier.
    pub fn of(ngm: &Ngm) -> Self {
        let s = ngm.runtime_stats();
        TierFailures {
            deadlines: s.deadlines,
            posts_dropped: s.posts_dropped,
            fallback_allocs: ngm.fallback_heap().allocs(),
        }
    }

    /// Operations that failed between `earlier` and `self`, of which
    /// `errors` returned `Err` to the caller, each counted once. On these
    /// one-shard tiers an allocation whose deadline expires ends as an
    /// `Err` or an inline fallback, and a free whose deadline expires is
    /// rerouted and succeeds late, so the expiries beyond errors plus
    /// fallbacks are the late frees.
    pub fn failed_ops_since(&self, earlier: &TierFailures, errors: u64) -> u64 {
        let surfaced = errors + (self.fallback_allocs - earlier.fallback_allocs);
        surfaced.max(self.deadlines - earlier.deadlines)
            + (self.posts_dropped - earlier.posts_dropped)
    }
}

/// Time of one `Ngm::metrics()` scrape.
pub fn scrape_metrics(ngm: &Ngm) -> std::time::Duration {
    let t = std::time::Instant::now();
    std::hint::black_box(ngm.metrics());
    t.elapsed()
}

/// The exact books a tier hands back at shutdown.
#[derive(Debug, Clone, Copy)]
pub struct TierEnd {
    /// `NgmShutdown::clean() && balanced()`.
    pub clean_and_balanced: bool,
    /// Blocks still live in the service heaps.
    pub live_blocks: u64,
    /// Blocks the service handed out, magazine prefetch included.
    pub allocs: u64,
    /// Blocks clients returned unused from magazines.
    pub magazine_returned: u64,
    /// Batched refill requests served.
    pub batch_refills: u64,
    /// Blocks clients allocated inline because the tier was unreachable.
    pub fallback_allocs: u64,
}

/// Shuts the tier down (every handle must be dropped first).
pub fn tier_shutdown(ngm: Ngm) -> TierEnd {
    let down = ngm.shutdown();
    TierEnd {
        clean_and_balanced: down.clean() && down.balanced(),
        live_blocks: down.heap.live_total(),
        allocs: down.service.allocs,
        magazine_returned: down.service.magazine_returned,
        batch_refills: down.service.batch_refills,
        fallback_allocs: down.service.fallback_allocs,
    }
}

// ---------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------

/// One simulated replay, reduced to what the benchmark reports and
/// compares.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// Simulated wall cycles (max over cores).
    pub wall_cycles: u64,
    /// Application-core counters.
    pub app: PmuCounters,
    /// Counters of the service core (zero for inline models).
    pub service: PmuCounters,
    /// Every core's counters, for the repeat-exactly check.
    pub per_core: Vec<PmuCounters>,
    /// Model metadata footprint at end of run.
    pub meta_bytes: u64,
    /// Objects still live at end of run.
    pub leaked: usize,
}

impl SimRun {
    fn of(r: RunResult, has_service_core: bool) -> Self {
        SimRun {
            wall_cycles: r.wall_cycles,
            app: r.app_total(1),
            service: if has_service_core {
                *r.per_core.last().expect("service core")
            } else {
                PmuCounters::default()
            },
            meta_bytes: r.meta_bytes,
            leaked: r.leaked,
            per_core: r.per_core,
        }
    }
}

/// The allocator models `table3_sim` replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimModel {
    /// The paper's Table 3 baseline.
    Mimalloc,
    /// NextGen-Malloc, every slot access through the coherence model.
    NgmDetailed,
    /// NextGen-Malloc under the paper's §4.1 four-atomics accounting.
    NgmPaperSync,
}

impl SimModel {
    /// Span name of one replay of this model.
    pub fn span(self) -> &'static str {
        match self {
            SimModel::Mimalloc => "simalloc.run.mimalloc",
            SimModel::NgmDetailed => "simalloc.run.ngm_detailed",
            SimModel::NgmPaperSync => "simalloc.run.ngm_paper_sync",
        }
    }

    /// Replays `events` on the simulated A72-like machine, counters
    /// zeroed after the first `warmup` events, exactly as `repro table3`
    /// does.
    pub fn run(self, events: &[Event], warmup: usize) -> SimRun {
        let it = events.iter().copied();
        match self {
            SimModel::Mimalloc => {
                SimRun::of(run_kind_warm(ModelKind::Mimalloc, 1, it, warmup), false)
            }
            SimModel::NgmDetailed | SimModel::NgmPaperSync => {
                let protocol = if self == SimModel::NgmDetailed {
                    Protocol::Detailed
                } else {
                    Protocol::PaperModel
                };
                let mut machine = Machine::new(ModelKind::Ngm.machine(1));
                let mut model = NgmModel::with_protocol(1, protocol);
                SimRun::of(run_warm(&mut machine, &mut model, it, warmup), true)
            }
        }
    }
}
