//! The tier: [`Ngm`], the control plane over its shard slots, and what
//! [`Ngm::shutdown`] hands back.

use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use ngm_heap::{FallbackHeap, HeapStats};
use ngm_offload::{
    OffloadRuntime, RuntimeConfig, RuntimeTelemetry, ServiceError, ShardHealth, StatsSnapshot,
};
use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::recorder::{RecordFrame, ShardSample};
use ngm_telemetry::trace::{TraceEvent, TraceEventKind};

use super::handle::NgmHandle;
use super::slot::Tier;
use crate::config::{NgmConfig, NgmError, FALLBACK_OWNER, OWNER_BASE};
use crate::service::ServiceStats;

/// Wall-clock seconds since the Unix epoch, captured once at the first
/// metrics render (`process_start_time_seconds` is conventionally the
/// scrape target's start, and the tier starts when something first asks
/// it for metrics at the latest).
fn process_start_secs() -> i64 {
    static START: std::sync::OnceLock<i64> = std::sync::OnceLock::new();
    *START.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs() as i64)
    })
}

/// The compiled feature set, for the `ngm_build_info` label.
fn build_features() -> &'static str {
    if cfg!(feature = "faultinject") {
        "faultinject"
    } else {
        "default"
    }
}

/// Shard snapshots summed into one (see [`StatsSnapshot::absorb`]).
fn merge(shards: impl IntoIterator<Item = StatsSnapshot>) -> StatsSnapshot {
    let mut shards = shards.into_iter();
    let mut merged = shards.next().expect("a tier has at least one shard");
    shards.for_each(|s| merged.absorb(&s));
    merged
}

/// The [`RecordFrame::states`] glyph for one shard's health.
fn state_glyph(health: ShardHealth) -> char {
    match health {
        ShardHealth::Serving => 'S',
        ShardHealth::Down => 'D',
    }
}

/// Why a request left its shard's normal path: the `a` payload of a
/// [`TraceEventKind::Failure`] event ([`Ngm::failures`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// A refill's round trip outlived the deadline.
    Deadline = 1,
    /// A free post found the ring full until the deadline.
    PostDeadline = 2,
    /// The shard's service thread was found dead.
    ShardDeath = 3,
    /// No shard could refill, so an allocation was served inline.
    Fallback = 4,
}

impl FailureReason {
    /// Stable lowercase label, as `/blackbox` renders it.
    pub const fn label(self) -> &'static str {
        match self {
            FailureReason::Deadline => "deadline",
            FailureReason::PostDeadline => "post-deadline",
            FailureReason::ShardDeath => "shard-death",
            FailureReason::Fallback => "fallback",
        }
    }

    /// The reason a [`TraceEventKind::Failure`] event's code names.
    pub const fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(FailureReason::Deadline),
            2 => Some(FailureReason::PostDeadline),
            3 => Some(FailureReason::ShardDeath),
            4 => Some(FailureReason::Fallback),
            _ => None,
        }
    }
}

/// The running allocator: one or more dedicated service threads plus
/// registration of per-thread client handles.
pub struct Ngm {
    /// The slots and the tier-wide state, shared with every handle.
    pub(super) tier: Arc<Tier>,
}

impl std::fmt::Debug for Ngm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ngm")
            .field("shards", &self.tier.slots.len())
            .field("batch_size", &self.tier.batch_size)
            .field("flush_threshold", &self.tier.flush_threshold)
            .finish_non_exhaustive()
    }
}

impl Ngm {
    /// Starts with the default configuration ([`NgmConfig::new`]: one
    /// shard, full magazines and free buffers).
    pub fn start() -> Self {
        NgmConfig::new().build().expect("default config is valid")
    }

    /// Builds the tier from a validated config (reached via
    /// [`NgmConfig::build`], and by the global hook): `cfg.shards`
    /// service threads, each running until [`Ngm::shutdown`].
    pub(crate) fn from_config(cfg: NgmConfig) -> Result<Self, NgmError> {
        let runtime_cfg = RuntimeConfig {
            trace_capacity: cfg.trace_capacity,
            deadline: cfg.deadline,
            ..RuntimeConfig::new()
        };
        Ok(Ngm {
            tier: Arc::new(Tier::start(&cfg, runtime_cfg).map_err(NgmError::Spawn)?),
        })
    }

    /// Number of service shards in this tier (the configured `shards`).
    pub fn num_shards(&self) -> usize {
        self.tier.slots.len()
    }

    /// Registers a handle for the calling (or any) thread. The handle
    /// holds one client endpoint per shard and routes between them.
    pub fn handle(&self) -> NgmHandle {
        NgmHandle::new(Arc::clone(&self.tier))
    }

    /// The failure edges still in the control ring, oldest first: one
    /// [`TraceEventKind::Failure`] event per edge, `a` its
    /// [`FailureReason`] code and `b` the shard implicated. Every edge is
    /// recorded, on every tier; the ring keeps the newest when it wraps,
    /// and a trace drain of slot 0's telemetry consumes them with the
    /// rest. The observer's `/blackbox` endpoint renders these.
    pub fn failures(&self) -> Vec<TraceEvent> {
        let mut events = self.tier.control.peek(usize::MAX);
        events.retain(|e| e.kind == TraceEventKind::Failure);
        events
    }

    /// The shared tier state, as the observer meters itself into it.
    pub(crate) fn obs_state(&self) -> &Tier {
        &self.tier
    }

    /// One flight-recorder frame of tier state: every shard's cumulative
    /// counters and live ring occupancy, read from its stats now.
    pub(crate) fn observer_frame(&self) -> RecordFrame {
        let health = self.shard_healths();
        let states: String = health.iter().map(|&h| state_glyph(h)).collect();
        let serving = health
            .iter()
            .filter(|&&h| h == ShardHealth::Serving)
            .count() as u64;
        let per_shard = self.per_shard_stats();
        let shards = per_shard
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardSample {
                shard: shard as u64,
                calls: s.calls_served,
                deadlines: s.deadlines,
                retries: s.post_full_retries,
                ring: s.ring_occupancy as u64,
            })
            .collect();
        RecordFrame {
            tsc: cycles_now(),
            serving,
            states,
            deadlines: per_shard.iter().map(|s| s.deadlines).sum(),
            fallbacks: self.tier.fallback.allocs(),
            obs_cycles: self.tier.obs_cycles_total(),
            shards,
        }
    }

    /// One shard's health: serving, or down once its service thread
    /// has exited ([`Ngm::stop_shard`], or a panic). Handles fail
    /// traffic over on their own; this surfaces the condition to
    /// `/readyz` and the flight recording.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.tier.slots[shard]
            .with_runtime(OffloadRuntime::health)
            .unwrap_or(ShardHealth::Down)
    }

    /// Every shard's [`Ngm::shard_health`], in shard order.
    pub(crate) fn shard_healths(&self) -> Vec<ShardHealth> {
        (0..self.num_shards())
            .map(|s| self.shard_health(s))
            .collect()
    }

    /// The shared degradation heap (diagnostics: `allocs()` > 0 means
    /// some request exhausted every shard and was served inline).
    pub fn fallback_heap(&self) -> &Arc<FallbackHeap> {
        &self.tier.fallback
    }

    /// Shard `shard`'s live fault-injection knobs (`faultinject` builds
    /// only): wedge the service loop, drop or delay responses, kill the
    /// thread mid-serve — while the tier runs.
    #[cfg(feature = "faultinject")]
    pub fn fault_state(&self, shard: usize) -> &Arc<ngm_offload::FaultState> {
        &self.tier.slots[shard].handles.fault
    }

    /// Frees a small block via its owning shard's orphan stack, routing
    /// by address. The right path for contexts that cannot hold a handle
    /// (thread teardown, guarded global-allocator re-entry).
    ///
    /// # Safety
    ///
    /// `ptr` must be a live small-class block allocated by this `Ngm`,
    /// relinquished by the caller.
    pub unsafe fn orphan_push(&self, ptr: NonNull<u8>) {
        // SAFETY: forwarded contract — a live small block from one of our
        // segregated heaps (shard or fallback).
        let owner = unsafe { ngm_heap::owner_of_small_ptr(ptr) };
        if self.tier.fallback.is_active() && owner == FALLBACK_OWNER {
            // Degraded-mode block: no shard ever owned it, so no orphan
            // stack can reclaim it. Free it inline.
            // SAFETY: forwarded contract.
            unsafe { self.tier.fallback.deallocate(ptr) };
            return;
        }
        let shard = self.shard_of_owned(owner);
        // SAFETY: forwarded contract.
        unsafe { self.tier.slots[shard].orphans.push(ptr) };
    }

    fn shard_of_owned(&self, owner: u64) -> usize {
        let shard = owner.wrapping_sub(OWNER_BASE) as usize;
        debug_assert!(shard < self.num_shards(), "foreign owner id {owner:#x}");
        if shard < self.num_shards() {
            shard
        } else {
            0
        }
    }

    /// Total blocks ever pushed onto any shard's orphan stack.
    pub fn orphans_pushed(&self) -> u64 {
        self.tier.slots.iter().map(|s| s.orphans.pushed()).sum()
    }

    /// Total orphaned blocks reclaimed by the service shards so far.
    pub fn orphans_drained(&self) -> u64 {
        self.tier.slots.iter().map(|s| s.orphans.drained()).sum()
    }

    /// Offload-runtime counters, merged across every shard (counters and
    /// occupancy gauges sum; `service_down` is true if *any* shard is
    /// down).
    pub fn runtime_stats(&self) -> StatsSnapshot {
        merge(self.tier.slots.iter().map(|s| s.handles.stats.snapshot()))
    }

    /// Every shard's offload-runtime counters, in shard order.
    fn per_shard_stats(&self) -> Vec<StatsSnapshot> {
        self.tier
            .slots
            .iter()
            .map(|s| s.handles.stats.snapshot())
            .collect()
    }

    /// Asks shard `shard`'s service thread to stop: it drains outstanding
    /// frees, then exits. Handles observe the death and fail allocation
    /// traffic over to the surviving shards; frees owed to the stopped
    /// shard are dropped and counted. [`Ngm::shutdown`] later recovers
    /// the shard's final stats normally.
    pub fn stop_shard(&self, shard: usize) {
        self.tier.slots[shard].with_runtime(OffloadRuntime::request_stop);
    }

    /// Whether shard `shard`'s service thread has exited (orderly or by
    /// panic).
    pub fn shard_finished(&self, shard: usize) -> bool {
        self.tier.slots[shard]
            .with_runtime(OffloadRuntime::is_finished)
            .unwrap_or(true)
    }

    /// Shard 0's telemetry hub (histograms of a single-shard tier; for
    /// the merged view use [`Ngm::metrics`]).
    pub fn telemetry(&self) -> &Arc<RuntimeTelemetry> {
        self.shard_telemetry(0)
    }

    /// One shard's telemetry hub.
    pub fn shard_telemetry(&self, shard: usize) -> &Arc<RuntimeTelemetry> {
        &self.tier.slots[shard].handles.telemetry
    }

    /// A near-current view of the tier's heaps: the service heaps
    /// (summed across shards) as published by each service thread during
    /// idle rounds, plus the fallback heap and the large-block ledger,
    /// which clients touch inline and which are therefore current. The
    /// shard fields may lag a busy service by one publication; the stats
    /// returned by [`Ngm::shutdown`] are exact.
    pub fn live_heap_stats(&self) -> HeapStats {
        let mut merged = self.off_shard_stats();
        for s in self.tier.slots.iter() {
            merged.absorb(&s.heap_mirror());
        }
        merged
    }

    /// The full exportable metrics snapshot, merged across shards:
    /// offload-runtime counters, gauges, and latency histograms, plus
    /// `ngm_heap_*` series mirrored from the service heaps and four
    /// per-shard `ngm_shard_*` families read from the same counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let per_shard = self.per_shard_stats();
        let stats = merge(per_shard.iter().copied());
        let peers: Vec<&RuntimeTelemetry> = self.tier.slots[1..]
            .iter()
            .map(|s| &*s.handles.telemetry)
            .collect();
        let mut m = self.telemetry().metrics_merged(&stats, &peers);
        let heap = self.live_heap_stats();
        let serving = self
            .shard_healths()
            .into_iter()
            .filter(|&h| h == ShardHealth::Serving)
            .count();
        m.counter("ngm_heap_allocs_total", heap.total_allocs)
            .counter("ngm_heap_frees_total", heap.total_frees)
            .counter(
                "ngm_heap_large_allocs_total",
                self.tier.large.stats().total_allocs,
            )
            .counter("ngm_fallback_allocs_total", self.tier.fallback.allocs())
            .gauge("ngm_service_shards", serving as i64)
            .gauge("ngm_heap_live_blocks", heap.live_blocks as i64)
            .gauge("ngm_heap_live_bytes", heap.live_bytes as i64)
            .gauge("ngm_heap_segments", heap.segments as i64)
            .gauge("ngm_heap_pages_in_use", heap.pages_in_use as i64)
            .gauge("ngm_heap_peak_live_bytes", heap.peak_live_bytes as i64);
        // Scrape-target conventions: liveness, build identity, process
        // start, and the running cost of observability itself.
        m.counter("ngm_obs_scrape_cycles_total", self.tier.obs_cycles_total())
            .gauge("ngm_up", 1)
            .gauge("process_start_time_seconds", process_start_secs())
            .labeled_gauge(
                "ngm_build_info",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    ("features", build_features()),
                ],
                1,
            );
        // One sample per shard per family, family-major: the exposition
        // format wants every sample of a family under one HELP/TYPE. The
        // ring is live; the other three are cumulative, and a scraper
        // takes the differences.
        type Sample = fn(&StatsSnapshot) -> i64;
        let families: [(&str, Sample); 4] = [
            ("ngm_shard_ring_occupancy", |s| s.ring_occupancy as i64),
            ("ngm_shard_calls_served", |s| s.calls_served as i64),
            ("ngm_shard_deadlines", |s| s.deadlines as i64),
            ("ngm_shard_post_full_retries", |s| {
                s.post_full_retries as i64
            }),
        ];
        for (name, value) in families {
            for (shard, s) in per_shard.iter().enumerate() {
                m.labeled_gauge(name, &[("shard", &shard.to_string())], value(s));
            }
        }
        m
    }

    /// Every shard's service-thread OS id, in shard order: what a
    /// harness opens counters on to measure the service cores from
    /// outside. A thread writes its id before its first round; this waits
    /// for that, so it never returns the 0 of a thread not yet started.
    pub fn service_tids(&self) -> Vec<i32> {
        self.tier
            .slots
            .iter()
            .map(|s| loop {
                let tid = s.handles.stats.service_tid.load(Ordering::Relaxed);
                if tid != 0 {
                    break tid;
                }
                std::thread::yield_now();
            })
            .collect()
    }

    /// Stops every service shard and returns final statistics, per shard
    /// and merged.
    ///
    /// All handles must be dropped or idle; posted frees are drained
    /// before each thread exits. A shard whose thread panicked comes back
    /// with [`ShardShutdown::error`] set and its last-published heap view
    /// instead of propagating the panic.
    pub fn shutdown(self) -> NgmShutdown {
        let mut shards = Vec::new();
        let mut service = ServiceStats::default();
        let mut heap = HeapStats::default();
        for (i, slot) in self.tier.slots.iter().enumerate() {
            let (service_stats, heap_stats, error) = match slot.stop() {
                // The recovered service reports its exact cumulative
                // books.
                Ok(svc) => (svc.service_stats(), svc.heap_stats(), None),
                // The service state died with its thread; the
                // idle-published mirror is the best remaining estimate.
                Err(e) => (ServiceStats::default(), slot.heap_mirror(), Some(e)),
            };
            let out = ShardShutdown {
                shard: i,
                service: service_stats,
                heap: heap_stats,
                // The counters live outside the service thread and
                // survive its death.
                runtime: slot.handles.stats.snapshot(),
                error,
            };
            service.absorb(&out.service);
            heap.absorb(&out.heap);
            shards.push(out);
        }
        // Fold the degradation heap and the large-block ledger into the
        // merged totals: their blocks are real allocations the
        // application received, so they must participate in the
        // allocs == frees invariant.
        let off_shard = self.off_shard_stats();
        service.fallback_allocs = self.tier.fallback.allocs();
        service.allocs += off_shard.total_allocs;
        service.frees += off_shard.total_frees;
        heap.absorb(&off_shard);
        NgmShutdown {
            runtime: merge(shards.iter().map(|s| s.runtime)),
            shards,
            service,
            heap,
        }
    }

    /// The blocks no shard ever sees — fallback blocks and large blocks,
    /// both allocated and freed inline by clients — as one [`HeapStats`],
    /// so the live view ([`Ngm::live_heap_stats`]) and the final books
    /// ([`Ngm::shutdown`]) fold them identically.
    fn off_shard_stats(&self) -> HeapStats {
        let mut stats = self.tier.fallback.stats();
        stats.absorb(&self.tier.large.stats());
        stats
    }
}

/// Final statistics from [`Ngm::shutdown`]: exact per-shard results plus
/// the merged totals.
#[derive(Debug, Clone)]
pub struct NgmShutdown {
    /// Per-shard results, indexed by shard.
    pub shards: Vec<ShardShutdown>,
    /// Service counters summed across shards, with the fallback heap's
    /// and the large-block ledger's blocks folded into `allocs`/`frees`
    /// (no shard serves either, so no [`ShardShutdown`] counts them).
    pub service: ServiceStats,
    /// Heap statistics summed across shards, the fallback heap and the
    /// large-block ledger (`peak_live_bytes` is the sum of the parts'
    /// peaks — an upper bound on the true combined peak).
    pub heap: HeapStats,
    /// Offload-runtime counters merged across shards.
    pub runtime: StatsSnapshot,
}

impl NgmShutdown {
    /// Whether every shard shut down cleanly (no panics, no double
    /// shutdowns).
    pub fn clean(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// Whether allocation/free accounting balances on every clean shard
    /// — the invariant `allocs == frees` must hold *per shard*, not just
    /// globally, or cross-shard frees went to the wrong heap.
    pub fn balanced(&self) -> bool {
        self.shards
            .iter()
            .filter(|s| s.error.is_none())
            .all(|s| s.service.allocs == s.service.frees)
    }
}

/// One shard's final statistics.
#[derive(Debug, Clone)]
pub struct ShardShutdown {
    /// The shard index.
    pub shard: usize,
    /// The shard's service counters (zeroed when the service state died
    /// with its thread — see `error`).
    pub service: ServiceStats,
    /// The shard's heap statistics (the last idle-published view when the
    /// thread died).
    pub heap: HeapStats,
    /// The shard's offload-runtime counters.
    pub runtime: StatsSnapshot,
    /// Why the shard's service state could not be recovered, if it
    /// couldn't.
    pub error: Option<ServiceError>,
}
