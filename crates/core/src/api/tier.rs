//! The tier: [`Ngm`], its shard slots, and what [`Ngm::shutdown`] hands
//! back.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use ngm_heap::classes::NUM_CLASSES;
use ngm_heap::{DeadBlockStack, FallbackHeap, HeapStats, LargeBlocks};
use ngm_offload::{
    OffloadRuntime, RuntimeConfig, RuntimeHandles, RuntimeTelemetry, ServiceError, StatsSnapshot,
};
use ngm_pmu::PmuReport;
use ngm_telemetry::blackbox::BlackboxDump;
use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::recorder::{RecordFrame, ShardSample};
use ngm_telemetry::sites::{SiteProfiler, SiteReport};
use ngm_telemetry::trace::TraceRing;
use ngm_telemetry::window::HeatFrame;

use super::elastic::{ControllerState, ScaleDecision};
use super::handle::NgmHandle;
use super::lock;
use crate::config::{
    CorePlacement, ElasticPolicy, NgmConfig, NgmError, ObserverConfig, FALLBACK_OWNER, OWNER_BASE,
};
use crate::heat::{HeatReport, ObsState, ShardHeat, ShardLifecycle};
use crate::service::{AddrBatch, MallocService, ServiceStats};
use crate::watch::SharedHeapStats;

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

/// The [`RecordFrame::states`] glyph for one lifecycle state.
fn state_glyph(state: ShardLifecycle) -> char {
    match state {
        ShardLifecycle::Dormant => '.',
        ShardLifecycle::Serving => 'S',
        ShardLifecycle::Draining => 'D',
        ShardLifecycle::Retired => 'R',
    }
}

/// The per-slot state that changes as the elastic controller spawns and
/// retires shards, shared between [`Ngm`] and every [`NgmHandle`].
///
/// A slot's *service* (heap, owner stamp, orphan stack) is created once
/// and lives for the tier's whole life; what comes and goes is the
/// *thread*. While a thread runs, `runtime` is `Some` and `parked` is
/// `None`; while the slot is dormant or retired it is the other way
/// around. `epoch` counts spawns so handles can tell a client registered
/// against a previous thread from a current one.
pub(super) struct SlotCell {
    pub(super) runtime: RwLock<Option<OffloadRuntime<MallocService>>>,
    pub(super) parked: Mutex<Option<MallocService>>,
    pub(super) epoch: AtomicU64,
    /// Set when a retirement's `try_shutdown` could not recover the
    /// service (the thread panicked); reported at final shutdown.
    pub(super) failure: Mutex<Option<ServiceError>>,
}

/// One service-shard slot: the swappable thread cell plus everything that
/// persists across spawn/retire epochs — counters, telemetry, the
/// heap-stats mirror, the orphan stack, and placement.
pub(super) struct Shard {
    pub(super) cell: Arc<SlotCell>,
    pub(super) orphans: Arc<DeadBlockStack>,
    pub(super) heap_watch: Arc<SharedHeapStats>,
    /// Stats/telemetry/retiring-gate/fault knobs, shared by every epoch
    /// of this slot (see [`RuntimeHandles`]).
    pub(super) handles: RuntimeHandles,
    pub(super) core: Option<usize>,
}

/// The running allocator: one or more dedicated service threads plus
/// registration of per-thread client handles.
pub struct Ngm {
    pub(super) shards: Box<[Shard]>,
    pub(super) batch_size: u32,
    pub(super) flush_threshold: u32,
    pub(super) sites: Option<Arc<SiteProfiler>>,
    /// The inline allocator of last resort, shared by every handle. Lazy:
    /// maps nothing until the first time a handle exhausts every shard
    /// (all deadlined or dead) and has to serve an allocation itself.
    pub(super) fallback: Arc<FallbackHeap>,
    /// The ledger every handle maps and unmaps large (non-class) blocks
    /// through, on its own thread: they never enter a shard.
    pub(super) large: Arc<LargeBlocks>,
    /// Shared heat windows + blackbox gate (see [`crate::heat`]).
    pub(super) obs: Arc<ObsState>,
    /// The elastic policy, when the tier scales at runtime.
    pub(super) elastic: Option<ElasticPolicy>,
    /// Scaling-controller state, serialized so at most one spawn or
    /// retirement is in flight at a time.
    pub(super) controller: Mutex<ControllerState>,
    /// Template for per-slot [`RuntimeConfig`]s (core and shard are
    /// filled in per slot).
    pub(super) runtime_cfg: RuntimeConfig,
    /// Controller-decision trace ring (on slot 0's telemetry hub — the
    /// resident floor always exists), when tracing is enabled.
    pub(super) scale_trace: Option<Arc<TraceRing>>,
    /// The live-observer config captured at build time
    /// ([`NgmConfig::with_observer`]), consumed by
    /// [`Ngm::start_observer`].
    pub(super) observer_cfg: Mutex<Option<ObserverConfig>>,
    /// Backpressure ceiling for [`crate::nonblocking::SubmissionQueue`]s
    /// built over this tier's handles ([`NgmConfig::with_inflight_limit`]).
    pub(super) inflight_limit: usize,
}

impl std::fmt::Debug for Ngm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ngm")
            .field("shards", &self.shards.len())
            .field("batch_size", &self.batch_size)
            .field("flush_threshold", &self.flush_threshold)
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
    /// [`NgmConfig::build`]).
    ///
    /// Every slot up to the elastic maximum is built eagerly — service,
    /// owner stamp, orphan stack, stats, telemetry — but only the initial
    /// `cfg.shards` get threads; the rest park dormant until the
    /// controller spawns them.
    pub(crate) fn from_config(cfg: NgmConfig) -> Result<Self, NgmError> {
        let cores = ngm_offload::available_cores();
        let total = cfg.elastic.map_or(cfg.shards, |p| p.max);
        let runtime_cfg = RuntimeConfig {
            client_wait: cfg.client_wait,
            ring_capacity: cfg.free_ring_capacity,
            trace_capacity: cfg.trace_capacity,
            profile: cfg.profile,
            deadline: cfg.deadline,
            ..RuntimeConfig::new()
        };
        let mut shards = Vec::with_capacity(total);
        let mut demand_watches = Vec::with_capacity(total);
        for i in 0..total {
            let orphans = Arc::new(DeadBlockStack::new());
            let service = MallocService::for_shard(i as u16, Arc::clone(&orphans));
            // Keep observing the heap (and refill demand) after the
            // service thread takes the service away from us.
            let heap_watch = Arc::clone(service.heap_watch());
            demand_watches.push(Arc::clone(service.demand_watch()));
            let core = match cfg.placement {
                // Highest cores first, leaving the low cores — where most
                // runtimes place app threads — alone; float when the
                // machine cannot give every shard its own room.
                CorePlacement::Auto => (cores > total).then(|| cores - 1 - i),
                CorePlacement::Unpinned => None,
                CorePlacement::Base(base) => Some(base + i),
            };
            shards.push(Shard {
                cell: Arc::new(SlotCell {
                    runtime: RwLock::new(None),
                    parked: Mutex::new(Some(service)),
                    epoch: AtomicU64::new(0),
                    failure: Mutex::new(None),
                }),
                orphans,
                heap_watch,
                handles: RuntimeHandles::fresh(&runtime_cfg),
                core,
            });
        }
        let mut ngm = Ngm {
            shards: shards.into_boxed_slice(),
            batch_size: cfg.batch_size as u32,
            flush_threshold: cfg.flush_threshold as u32,
            sites: (cfg.site_sample > 0).then(|| Arc::new(SiteProfiler::new(cfg.site_sample))),
            fallback: Arc::new(FallbackHeap::new(FALLBACK_OWNER)),
            large: Arc::default(),
            obs: Arc::new(ObsState::new(cfg.blackbox, demand_watches)),
            elastic: cfg.elastic,
            controller: Mutex::new(ControllerState::default()),
            runtime_cfg,
            scale_trace: None,
            observer_cfg: Mutex::new(cfg.observer),
            inflight_limit: cfg.inflight_limit,
        };
        for i in 0..cfg.shards {
            ngm.spawn_slot(i).map_err(NgmError::Spawn)?;
        }
        // The controller's decision ring claims its thread id only after
        // the initial spawns, so slot 0's service loop keeps id 0.
        ngm.scale_trace = ngm.shards[0].handles.telemetry.new_ring();
        Ok(ngm)
    }

    /// Per-slot runtime config: the shared template plus this slot's
    /// placement.
    fn slot_runtime_cfg(&self, slot: usize) -> RuntimeConfig {
        RuntimeConfig {
            core: self.shards[slot].core,
            shard: slot,
            ..self.runtime_cfg
        }
    }

    /// Takes the slot's parked service and gives it a (new) thread. The
    /// slot's stats, telemetry, and fault knobs persist across epochs
    /// (see [`RuntimeHandles`]); the epoch bump tells handles their old
    /// clients are stale.
    pub(super) fn spawn_slot(&self, slot: usize) -> Result<(), ServiceError> {
        let shard = &self.shards[slot];
        let mut rt_guard = shard
            .cell
            .runtime
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if rt_guard.is_some() {
            return Ok(());
        }
        let service = lock(&shard.cell.parked)
            .take()
            .ok_or(ServiceError::SpawnFailed)?;
        let runtime =
            OffloadRuntime::try_start_shared(service, self.slot_runtime_cfg(slot), &shard.handles)?;
        *rt_guard = Some(runtime);
        shard.cell.epoch.fetch_add(1, Ordering::AcqRel);
        drop(rt_guard);
        self.obs.set_state(slot, ShardLifecycle::Serving);
        Ok(())
    }

    /// Number of service-shard slots in this tier. For a static tier
    /// this is the configured shard count; for an elastic tier it is the
    /// policy's `max` (use [`Ngm::serving_shards`] for the currently
    /// serving subset).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Registers a handle for the calling (or any) thread. The handle
    /// holds one client endpoint per serving shard and routes between
    /// them, registering endpoints to later-spawned shards lazily.
    pub fn handle(&self) -> NgmHandle {
        let n = self.shards.len();
        let mut clients = Vec::with_capacity(n);
        let mut client_epoch = Vec::with_capacity(n);
        for (i, s) in self.shards.iter().enumerate() {
            let guard = s
                .cell
                .runtime
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            // A PMU session counts its whole thread; arming one handle
            // per shard would re-count this thread once per shard, so
            // only the shard-0 endpoint arms.
            clients.push(guard.as_ref().map(|rt| rt.register_client_with_pmu(i == 0)));
            client_epoch.push(s.cell.epoch.load(Ordering::Acquire));
        }
        let mut handle = NgmHandle {
            clients: clients.into_boxed_slice(),
            slots: self.shards.iter().map(|s| Arc::clone(&s.cell)).collect(),
            client_epoch: client_epoch.into_boxed_slice(),
            seen_generation: self.obs.generation(),
            shard_stats: self
                .shards
                .iter()
                .map(|s| Arc::clone(&s.handles.stats))
                .collect(),
            shard_telemetry: self
                .shards
                .iter()
                .map(|s| Arc::clone(&s.handles.telemetry))
                .collect(),
            orphans: self.shards.iter().map(|s| Arc::clone(&s.orphans)).collect(),
            batch_size: self.batch_size,
            flush_threshold: self.flush_threshold,
            magazines: [AddrBatch::empty(); NUM_CLASSES],
            mag_shard: [0u16; NUM_CLASSES],
            class_shard: [0u16; NUM_CLASSES],
            free_bufs: vec![AddrBatch::empty(); n].into_boxed_slice(),
            stash_by_shard: vec![0i64; n].into_boxed_slice(),
            published_occupancy: vec![0i64; n].into_boxed_slice(),
            pressure: vec![0u32; n].into_boxed_slice(),
            failed: vec![false; n].into_boxed_slice(),
            sites: self.sites.clone(),
            fallback: Arc::clone(&self.fallback),
            large: Arc::clone(&self.large),
            obs: Arc::clone(&self.obs),
            nb_pending: vec![None; n].into_boxed_slice(),
            settled: 0,
            inflight_limit: self.inflight_limit,
        };
        handle.recompute_class_routes();
        handle
    }

    /// The tier's one clock: samples every shard into its heat window
    /// (one cumulative frame per shard, so a window spans the last
    /// [`ngm_telemetry::window::DEFAULT_HEAT_FRAMES`] tick intervals),
    /// then runs one elastic-controller evaluation over the windows and
    /// returns what it decided. Nothing else writes the windows or runs
    /// the controller: [`Ngm::heat_report`], [`Ngm::metrics`], the
    /// observer endpoints, blackbox dumps and rebalances only read what
    /// the last tick wrote, so how often the tier is scraped never
    /// shortens the window's time-base or arms a scaling streak. Call it
    /// at the cadence the windows should span — by hand, or from the
    /// background thread [`Ngm::autoscaler`] (and the observer) runs.
    pub fn tick(&self) -> ScaleDecision {
        let fallbacks = self.fallback.allocs();
        for (i, s) in self.shards.iter().enumerate() {
            // Counters live in the slot's persistent handles, so a
            // dormant slot samples as zeros and a respawned slot's
            // window stays monotonic across epochs.
            let stats = s.handles.stats.snapshot();
            let frame = HeatFrame {
                tsc: cycles_now(),
                ring_occupancy: stats.ring_occupancy as u64,
                calls: stats.calls_served,
                deadlines: stats.deadlines,
                retries: stats.post_full_retries,
                fallbacks,
                phases: s
                    .handles
                    .telemetry
                    .phase_cycles
                    .iter()
                    .map(|h| h.snapshot())
                    .collect(),
                demand: self.obs.demand(i),
            };
            self.obs.push_frame(i, frame);
        }
        self.obs.record_tick();
        self.scaling_tick()
    }

    /// [`Ngm::tick`]s so far: the number of frames every heat window has
    /// been offered, whoever scraped in between.
    pub fn ticks(&self) -> u64 {
        self.obs.ticks_total()
    }

    /// The windowed aggregates as of the last [`Ngm::tick`], one entry
    /// per shard: recent calls, deadline/retry/fallback rates, ring
    /// occupancy, windowed phase percentiles, and per-size-class refill
    /// demand. A pure read — all-zero entries before the first tick.
    pub fn heat_report(&self) -> HeatReport {
        self.obs.report()
    }

    /// The most recent blackbox dumps, newest last (empty when the
    /// blackbox is disabled or nothing has fired). Dumps also go to
    /// stderr and the `NGM_BLACKBOX_PATH` file at emit time; this ring
    /// is what the observer's `/blackbox` endpoint serves.
    pub fn blackbox_dumps(&self) -> Vec<BlackboxDump> {
        self.obs
            .blackbox
            .as_ref()
            .map(|r| r.recent())
            .unwrap_or_default()
    }

    /// Shared observability state, for the observer endpoints.
    pub(crate) fn obs_state(&self) -> &ObsState {
        &self.obs
    }

    /// Takes the observer config stashed by [`NgmConfig::with_observer`]
    /// (at most once).
    pub(crate) fn take_observer_cfg(&self) -> Option<ObserverConfig> {
        lock(&self.observer_cfg).take()
    }

    /// One flight-recorder frame of tier state, assembled while holding
    /// the controller mutex. Every scale transition stamps its trace
    /// event under that same mutex, so a frame can never observe a
    /// serving count that disagrees with the `Scale` events timestamped
    /// before and after it — which is what lets the offline analyzer
    /// cross-check a recording against the event stream *exactly*.
    pub(crate) fn observer_frame(&self) -> RecordFrame {
        let _st = lock(&self.controller);
        let states: String = (0..self.shards.len())
            .map(|s| state_glyph(self.obs.state(s)))
            .collect();
        let serving = states.chars().filter(|&c| c == 'S').count() as u64;
        let stats = self.runtime_stats();
        let shards = (0..self.shards.len())
            .filter_map(|s| {
                let heat = self.obs.settled_heat(s)?;
                let sh = ShardHeat { shard: s, heat };
                Some(ShardSample {
                    shard: s as u64,
                    score: sh.score(),
                    calls: sh.heat.calls,
                    deadlines: sh.heat.deadlines,
                    retries: sh.heat.retries,
                    ring: sh.heat.ring_occupancy,
                })
            })
            .collect();
        RecordFrame {
            tsc: cycles_now(),
            serving,
            states,
            deadlines: stats.deadlines,
            fallbacks: self.fallback.allocs(),
            scale_up: self.obs.scale_up_total(),
            scale_down: self.obs.scale_down_total(),
            obs_cycles: self.obs.obs_cycles_total(),
            shards,
        }
    }

    /// One shard's runtime-level health ([`ngm_offload::ShardHealth`]):
    /// `None` for a slot with no thread (dormant/retired), otherwise
    /// whether the thread is serving, gated for drain, or dead.
    pub fn shard_health(&self, shard: usize) -> Option<ngm_offload::ShardHealth> {
        self.shards[shard]
            .cell
            .runtime
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map(OffloadRuntime::health)
    }

    /// Serving slots whose service thread has exited without the
    /// controller noticing yet — a wedged shard. Handles fail traffic
    /// over on their own; this surfaces the condition to `/readyz`.
    pub(crate) fn wedged_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| {
                self.obs.state(s) == ShardLifecycle::Serving
                    && self.shard_health(s) == Some(ngm_offload::ShardHealth::Down)
            })
            .collect()
    }

    /// The shared degradation heap (diagnostics: `allocs()` > 0 means
    /// some request exhausted every shard and was served inline).
    pub fn fallback_heap(&self) -> &Arc<FallbackHeap> {
        &self.fallback
    }

    /// Shard `shard`'s live fault-injection knobs (`faultinject` builds
    /// only): wedge the service loop, drop or delay responses, kill the
    /// thread mid-serve — while the tier runs.
    #[cfg(feature = "faultinject")]
    pub fn fault_state(&self, shard: usize) -> &Arc<ngm_offload::FaultState> {
        &self.shards[shard].handles.fault
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
        if let Some(prof) = &self.sites {
            prof.record_free(ptr.as_ptr() as usize);
        }
        // SAFETY: forwarded contract — a live small block from one of our
        // segregated heaps (shard or fallback).
        let owner = unsafe { ngm_heap::owner_of_small_ptr(ptr) };
        if self.fallback.is_active() && owner == FALLBACK_OWNER {
            // Degraded-mode block: no shard ever owned it, so no orphan
            // stack can reclaim it. Free it inline.
            // SAFETY: forwarded contract.
            unsafe { self.fallback.deallocate(ptr) };
            return;
        }
        let shard = self.shard_of_owned(owner);
        // SAFETY: forwarded contract.
        unsafe { self.shards[shard].orphans.push(ptr) };
    }

    fn shard_of_owned(&self, owner: u64) -> usize {
        let shard = owner.wrapping_sub(OWNER_BASE) as usize;
        debug_assert!(shard < self.shards.len(), "foreign owner id {owner:#x}");
        if shard < self.shards.len() {
            shard
        } else {
            0
        }
    }

    /// Total blocks ever pushed onto any shard's orphan stack.
    pub fn orphans_pushed(&self) -> u64 {
        self.shards.iter().map(|s| s.orphans.pushed()).sum()
    }

    /// Total orphaned blocks reclaimed by the service shards so far.
    pub fn orphans_drained(&self) -> u64 {
        self.shards.iter().map(|s| s.orphans.drained()).sum()
    }

    /// Offload-runtime counters, merged across every shard (counters and
    /// occupancy gauges sum; `service_down` is true if *any* shard is
    /// down).
    pub fn runtime_stats(&self) -> StatsSnapshot {
        let mut merged = self.shards[0].handles.stats.snapshot();
        for s in &self.shards[1..] {
            merged.absorb(&s.handles.stats.snapshot());
        }
        merged
    }

    /// Asks shard `shard`'s service thread to stop: it drains outstanding
    /// frees, then exits. Handles observe the death and fail allocation
    /// traffic over to the surviving shards; frees owed to the stopped
    /// shard are dropped and counted. [`Ngm::shutdown`] later recovers
    /// the shard's final stats normally. A no-op for a slot with no
    /// thread.
    pub fn stop_shard(&self, shard: usize) {
        if let Some(rt) = self.shards[shard]
            .cell
            .runtime
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            rt.request_stop();
        }
    }

    /// Whether shard `shard`'s service thread has exited (orderly or by
    /// panic) — or never had one (a dormant/retired slot).
    pub fn shard_finished(&self, shard: usize) -> bool {
        self.shards[shard]
            .cell
            .runtime
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .is_none_or(OffloadRuntime::is_finished)
    }

    /// Shard 0's telemetry hub (histograms of a single-shard tier; for
    /// the merged view use [`Ngm::metrics`]).
    pub fn telemetry(&self) -> &Arc<RuntimeTelemetry> {
        &self.shards[0].handles.telemetry
    }

    /// One shard's telemetry hub.
    pub fn shard_telemetry(&self, shard: usize) -> &Arc<RuntimeTelemetry> {
        &self.shards[shard].handles.telemetry
    }

    /// A near-current view of the tier's heaps: the service heaps
    /// (summed across shards) as published by each service thread during
    /// idle rounds, plus the fallback heap and the large-block ledger,
    /// which clients touch inline and which are therefore current. The
    /// shard fields may lag a busy service by one publication; the stats
    /// returned by [`Ngm::shutdown`] are exact.
    pub fn live_heap_stats(&self) -> HeapStats {
        let mut merged = off_shard_stats(&self.fallback, &self.large);
        for s in self.shards.iter() {
            merged.absorb(&s.heap_watch.load());
        }
        merged
    }

    /// The full exportable metrics snapshot, merged across shards:
    /// offload-runtime counters, gauges, and latency histograms, plus
    /// `ngm_heap_*` series mirrored from the service heaps.
    pub fn metrics(&self) -> MetricsSnapshot {
        let stats = self.runtime_stats();
        let peers: Vec<&RuntimeTelemetry> = self.shards[1..]
            .iter()
            .map(|s| &*s.handles.telemetry)
            .collect();
        let mut m = self.shards[0]
            .handles
            .telemetry
            .metrics_merged(&stats, &peers);
        let heap = self.live_heap_stats();
        m.counter("ngm_heap_allocs_total", heap.total_allocs)
            .counter("ngm_heap_frees_total", heap.total_frees)
            .counter(
                "ngm_heap_large_allocs_total",
                self.large.stats().total_allocs,
            )
            .counter("ngm_fallback_allocs_total", self.fallback.allocs())
            .counter("ngm_scale_up_total", self.obs.scale_up_total())
            .counter("ngm_scale_down_total", self.obs.scale_down_total())
            .gauge("ngm_service_shards", self.serving_shards().len() as i64)
            .gauge("ngm_heap_live_blocks", heap.live_blocks as i64)
            .gauge("ngm_heap_live_bytes", heap.live_bytes as i64)
            .gauge("ngm_heap_segments", heap.segments as i64)
            .gauge("ngm_heap_pages_in_use", heap.pages_in_use as i64)
            .gauge("ngm_heap_peak_live_bytes", heap.peak_live_bytes as i64);
        // Scrape-target conventions: liveness, build identity, process
        // start, and the running cost of observability itself.
        m.counter("ngm_obs_scrape_cycles_total", self.obs.obs_cycles_total())
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
        // The heat series are whatever the last tick wrote: one sample
        // per shard per family, ticked or not.
        self.heat_report().publish(&mut m);
        if let Some(report) = self.site_report() {
            report.publish(&mut m);
        }
        m
    }

    /// The service-cores-vs-app-cores PMU report, when
    /// [`NgmConfig::profile`] was set and at least one measured thread
    /// has retired. Each shard's service loop is its own column
    /// (`shard<N>`); client columns merge, since only one endpoint per
    /// thread arms. A service column is deposited when its loop exits,
    /// so the complete report is [`NgmShutdown::pmu`].
    pub fn pmu_report(&self) -> Option<PmuReport> {
        if self.shards.len() == 1 {
            return self.shards[0].handles.telemetry.pmu_report();
        }
        let mut out = PmuReport::new("PMU: service shards vs app cores");
        let mut clients = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            if let Some(rep) = s.handles.telemetry.pmu_report() {
                for col in rep.cols {
                    if col.name.starts_with("service") {
                        out.push(format!("shard{i}"), col.reading);
                    } else {
                        clients.push(col);
                    }
                }
            }
        }
        // Service columns first, in shard order, then the app cores.
        out.cols.extend(clients);
        (!out.cols.is_empty()).then_some(out)
    }

    /// The allocation-site attribution snapshot, when
    /// [`NgmConfig::site_sample`] enabled the profiler. Rendered at
    /// shutdown this is the leak report: surviving sites are leak
    /// suspects.
    pub fn site_report(&self) -> Option<SiteReport> {
        self.sites.as_ref().map(|s| s.report())
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
        let mut runtime: Option<StatsSnapshot> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let taken = shard
                .cell
                .runtime
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let out = match taken {
                Some(rt) => match rt.try_shutdown() {
                    Ok((mut svc, stats)) => {
                        // The stop path drains rings but never runs
                        // another idle round, so orphans pushed late
                        // (deadline-rerouted frees, teardown races) are
                        // still pending — reclaim them now that we own
                        // the service again.
                        svc.reclaim_orphans();
                        ShardShutdown {
                            shard: i,
                            service: svc.service_stats(),
                            heap: svc.heap_stats(),
                            runtime: stats,
                            error: None,
                        }
                    }
                    Err(failure) => ShardShutdown {
                        shard: i,
                        service: ServiceStats::default(),
                        // The service state died with its thread; the
                        // idle-published mirror is the best remaining
                        // estimate.
                        heap: shard.heap_watch.load(),
                        runtime: failure.stats,
                        error: Some(failure.error),
                    },
                },
                // No thread: the slot is dormant (never spawned) or
                // retired (drained to zero balance and parked). The
                // parked service reports its exact cumulative books; a
                // slot whose retirement lost the service (it panicked
                // mid-drain) reports the stored failure instead.
                None => match lock(&shard.cell.parked).take() {
                    Some(mut svc) => {
                        svc.reclaim_orphans();
                        ShardShutdown {
                            shard: i,
                            service: svc.service_stats(),
                            heap: svc.heap_stats(),
                            runtime: shard.handles.stats.snapshot(),
                            error: lock(&shard.cell.failure).take(),
                        }
                    }
                    None => ShardShutdown {
                        shard: i,
                        service: ServiceStats::default(),
                        heap: shard.heap_watch.load(),
                        runtime: shard.handles.stats.snapshot(),
                        error: lock(&shard.cell.failure).take(),
                    },
                },
            };
            service.absorb(&out.service);
            heap.absorb(&out.heap);
            match &mut runtime {
                Some(r) => r.absorb(&out.runtime),
                None => runtime = Some(out.runtime),
            }
            shards.push(out);
        }
        // Fold the degradation heap and the large-block ledger into the
        // merged totals: their blocks are real allocations the
        // application received, so they must participate in the
        // allocs == frees invariant.
        let off_shard = off_shard_stats(&self.fallback, &self.large);
        service.fallback_allocs = self.fallback.allocs();
        service.allocs += off_shard.total_allocs;
        service.frees += off_shard.total_frees;
        heap.absorb(&off_shard);
        NgmShutdown {
            shards,
            service,
            heap,
            runtime: runtime.expect("a tier has at least one shard"),
            // Every service loop has exited and deposited its reading.
            pmu: self.pmu_report(),
        }
    }
}

/// The blocks no shard ever sees — fallback blocks and large blocks,
/// both allocated and freed inline by clients — as one [`HeapStats`], so
/// the live view ([`Ngm::live_heap_stats`]) and the final books
/// ([`Ngm::shutdown`]) fold them identically.
fn off_shard_stats(fallback: &FallbackHeap, large: &LargeBlocks) -> HeapStats {
    let mut stats = fallback.stats();
    stats.absorb(&large.stats());
    stats
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
    /// The service-vs-clients PMU report ([`Ngm::pmu_report`]) with every
    /// shard's service column in it; `None` unless
    /// [`NgmConfig::profile`] was set.
    pub pmu: Option<PmuReport>,
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
