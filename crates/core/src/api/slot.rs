//! One [`Slot`] per service shard, and the [`Tier`] that holds them:
//! the state [`Ngm`](super::Ngm) and every
//! [`NgmHandle`](super::NgmHandle) share through a single `Arc`.
//!
//! A slot's *service* (heap, owner stamp, orphan stack) is created once
//! and lives for the tier's whole life; what comes and goes is the
//! *thread*. Everything else that persists for the slot — counters,
//! telemetry, the retiring gate, fault knobs, the heap and demand
//! mirrors, the lifecycle state, the heat window, the pinned core — sits
//! beside the thread cell in the same struct, so a shard's life is
//! [`Slot::spawn`] → [`Slot::stop`] and nothing about it lives elsewhere.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use ngm_heap::{DeadBlockStack, FallbackHeap, HeapStats, LargeBlocks};
use ngm_offload::{ClientHandle, OffloadRuntime, RuntimeConfig, RuntimeHandles, ServiceError};
use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::trace::{TraceEventKind, TraceRing};
use ngm_telemetry::window::{HeatFrame, HeatWindow};

use super::lock;
use super::tier::FailureReason;
use crate::config::{CorePlacement, NgmConfig, FALLBACK_OWNER};
use crate::heat::{HeatReport, ShardHeat, ShardLifecycle};
use crate::service::MallocService;
use crate::watch::{SharedDemand, SharedHeapStats};

/// One service-shard slot.
pub(crate) struct Slot {
    shard: usize,
    /// Where the slot's thread is pinned, when it is.
    core: Option<usize>,
    /// The running thread. While it runs `parked` is `None`; while the
    /// slot is dormant or retired it is the other way around.
    runtime: Mutex<Option<OffloadRuntime<MallocService>>>,
    parked: Mutex<Option<MallocService>>,
    /// Counts spawns, so a handle can tell a client registered against a
    /// previous thread from a current one.
    epoch: AtomicU64,
    /// Why [`Slot::stop`] could not recover the service (its thread
    /// panicked); reported at final shutdown.
    failure: Mutex<Option<ServiceError>>,
    /// Stats, telemetry, retiring gate and fault knobs, shared by every
    /// epoch of this slot (see [`RuntimeHandles`]) — valid when the slot
    /// has no thread, and thus no client to reach them through.
    pub(super) handles: RuntimeHandles,
    /// Where undeliverable frees of this shard's blocks are diverted.
    pub(super) orphans: Arc<DeadBlockStack>,
    /// The service's idle-published heap statistics and cumulative
    /// per-class refill demand, readable while its thread owns it.
    heap_watch: Arc<SharedHeapStats>,
    demand: Arc<SharedDemand>,
    /// The [`ShardLifecycle`] (as `u8`), written under the controller
    /// lock and at spawn, read by every handle's route resync.
    state: AtomicU8,
    heat: Mutex<HeatWindow>,
}

impl Slot {
    fn new(shard: usize, core: Option<usize>, cfg: &RuntimeConfig) -> Self {
        let orphans = Arc::new(DeadBlockStack::new());
        let service = MallocService::for_shard(shard as u16, Arc::clone(&orphans));
        Slot {
            shard,
            core,
            runtime: Mutex::new(None),
            // Keep observing the heap (and refill demand) after the
            // service thread takes the service away from us.
            heap_watch: Arc::clone(service.heap_watch()),
            demand: Arc::clone(service.demand_watch()),
            parked: Mutex::new(Some(service)),
            epoch: AtomicU64::new(0),
            failure: Mutex::new(None),
            handles: RuntimeHandles::fresh(cfg),
            orphans,
            state: AtomicU8::new(ShardLifecycle::Dormant as u8),
            heat: Mutex::new(HeatWindow::default()),
        }
    }

    /// Runs `f` on the slot's runtime; `None` when it has no thread.
    pub(super) fn with_runtime<R>(
        &self,
        f: impl FnOnce(&OffloadRuntime<MallocService>) -> R,
    ) -> Option<R> {
        lock(&self.runtime).as_ref().map(f)
    }

    /// Registers a client with the slot's current thread, if it has one,
    /// and reports the epoch that client belongs to.
    pub(super) fn register(&self, pmu: bool) -> (Option<ClientHandle<MallocService>>, u64) {
        let runtime = lock(&self.runtime);
        let client = runtime.as_ref().map(|rt| rt.register_client_with_pmu(pmu));
        (client, self.epoch.load(Ordering::Acquire))
    }

    /// The current spawn count.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Takes the parked service and gives it a (new) thread, configured
    /// from the tier's template `cfg` plus this slot's placement. The
    /// slot's stats, telemetry and fault knobs carry over; the epoch bump
    /// tells handles their old clients are stale. A no-op on a slot that
    /// already runs.
    pub(super) fn spawn(&self, cfg: RuntimeConfig) -> Result<(), ServiceError> {
        let mut runtime = lock(&self.runtime);
        if runtime.is_some() {
            return Ok(());
        }
        let service = lock(&self.parked).take().ok_or(ServiceError::SpawnFailed)?;
        let cfg = RuntimeConfig {
            core: self.core,
            shard: self.shard,
            ..cfg
        };
        *runtime = Some(OffloadRuntime::try_start_shared(
            service,
            cfg,
            &self.handles,
        )?);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Stops the slot's thread, if it has one, and recovers its service:
    /// the thread drains its rings and is joined, the orphans pushed
    /// since its last idle round (deadline-rerouted frees, teardown
    /// races) are reclaimed now that the service is ours again, and the
    /// service parks for a later respawn or the final books. A thread
    /// that panicked leaves its [`ServiceError`] instead. The one way a
    /// shard stops, whether the controller retires it or the tier shuts
    /// down.
    pub(super) fn stop(&self) {
        let Some(runtime) = lock(&self.runtime).take() else {
            return;
        };
        match runtime.try_shutdown() {
            Ok((mut service, _)) => {
                service.reclaim_orphans();
                *lock(&self.parked) = Some(service);
            }
            Err(failure) => *lock(&self.failure) = Some(failure.error),
        }
    }

    /// Whether a service is parked here, ready for [`Slot::spawn`].
    pub(super) fn is_parked(&self) -> bool {
        lock(&self.parked).is_some()
    }

    /// Takes the parked service (with whatever was orphaned to it while
    /// it had no thread reclaimed) and the stored failure: the slot's
    /// last word, for [`Ngm::shutdown`](super::Ngm::shutdown) after
    /// [`Slot::stop`].
    pub(super) fn take_parked(&self) -> (Option<MallocService>, Option<ServiceError>) {
        let mut service = lock(&self.parked).take();
        if let Some(service) = &mut service {
            service.reclaim_orphans();
        }
        (service, lock(&self.failure).take())
    }

    /// The service heap as last published from an idle round.
    pub(super) fn heap_mirror(&self) -> HeapStats {
        self.heap_watch.load()
    }

    /// Whether the shard has handed every block back: the service heap
    /// balances, nothing is left in its rings, no handle still stashes
    /// its blocks in a magazine, and its orphan stack is drained.
    pub(super) fn is_drained(&self) -> bool {
        let heap = self.heap_mirror();
        let stats = self.handles.stats.snapshot();
        heap.total_allocs == heap.total_frees
            && self.orphans.pushed() == self.orphans.drained()
            && stats.ring_occupancy == 0
            && stats.magazine_occupancy == 0
    }

    /// The slot's current lifecycle state (racy read; transitions are
    /// serialized by the controller lock).
    pub(crate) fn state(&self) -> ShardLifecycle {
        ShardLifecycle::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Samples the slot's cumulative counters into its heat window: one
    /// frame per [`Ngm::tick`](super::Ngm::tick). The counters live in
    /// the persistent handles, so a dormant slot samples as zeros and a
    /// respawned slot's window stays monotonic across epochs.
    pub(super) fn sample(&self, fallbacks: u64) {
        let stats = self.handles.stats.snapshot();
        let phases = &self.handles.telemetry.phase_cycles;
        self.push_frame(HeatFrame {
            tsc: cycles_now(),
            ring_occupancy: stats.ring_occupancy as u64,
            calls: stats.calls_served,
            deadlines: stats.deadlines,
            retries: stats.post_full_retries,
            fallbacks,
            phases: phases.iter().map(|h| h.snapshot()).collect(),
            demand: self.demand.load(),
        });
    }

    /// Appends a cumulative sample: the window's only writer
    /// ([`Slot::sample`], and the `inject_heat` test hook).
    pub(super) fn push_frame(&self, frame: HeatFrame) {
        lock(&self.heat).push(frame);
    }

    /// The slot's windowed heat as of the last tick; all-zero before the
    /// first one, so readers see every shard whatever the tick history.
    /// On the allocation path (`route` → `rebalance_away_from`), hence
    /// the poison-tolerant lock.
    pub(super) fn windowed(&self) -> ShardHeat {
        ShardHeat {
            shard: self.shard,
            heat: lock(&self.heat).windowed().unwrap_or_default(),
        }
    }

    /// The windowed heat when the window is *settled* — at least two
    /// frames, so the delta spans a real interval instead of the
    /// garbage-prone cumulative-since-start single-frame view. The
    /// elastic controller only acts on settled windows; anything less
    /// falls back to the static (no-op) policy.
    pub(super) fn settled_heat(&self) -> Option<ShardHeat> {
        let window = lock(&self.heat);
        let heat = window.windowed().filter(|_| window.len() >= 2)?;
        Some(ShardHeat {
            shard: self.shard,
            heat,
        })
    }
}

/// Events the control ring holds at least (a traced tier's ring holds
/// `trace_capacity`, when that is more).
const CONTROL_EVENTS: usize = 256;

/// The thread id the control ring's events carry: no runtime thread
/// registers it, so it cannot collide with one.
const CONTROL_THREAD: u32 = u32::MAX;

/// What [`Ngm`](super::Ngm) and every [`NgmHandle`](super::NgmHandle)
/// of a tier share: its slots and the tier-wide state beside them.
pub(crate) struct Tier {
    pub(super) slots: Box<[Slot]>,
    /// Bumped on every lifecycle transition; handles compare it against
    /// their cached value with one relaxed load per operation and resync
    /// their routes when it moved.
    generation: AtomicU64,
    pub(super) batch_size: u32,
    pub(super) flush_threshold: u32,
    /// Backpressure ceiling for [`crate::nonblocking::SubmissionQueue`]s
    /// built over this tier's handles ([`NgmConfig::with_inflight_limit`]).
    pub(super) inflight_limit: usize,
    /// The inline allocator of last resort. Lazy: maps nothing until the
    /// first time a handle exhausts every shard (all deadlined or dead)
    /// and has to serve an allocation itself.
    pub(super) fallback: Arc<FallbackHeap>,
    /// The ledger every handle maps and unmaps large (non-class) blocks
    /// through, on its own thread: they never enter a shard.
    pub(super) large: LargeBlocks,
    /// The control ring: every scaling decision and every failure edge,
    /// in order. Built with the tier and registered with slot 0's
    /// telemetry (the resident floor always exists), so a drain or peek
    /// of the trace sees these events in the same stream as the rest.
    /// Its storage never grows, so recording a failure never allocates —
    /// which keeps it safe under the global hook.
    pub(crate) control: Arc<TraceRing>,
    /// [`Ngm::tick`](super::Ngm::tick)s so far — the windows' time-base.
    pub(super) ticks: AtomicU64,
    pub(super) scale_up: AtomicU64,
    pub(super) scale_down: AtomicU64,
    /// Cycles spent on observability work (metrics scrapes, recorder
    /// appends, endpoint renders), written only by the observer/scrape
    /// threads — never by the allocation hot path.
    obs_cycles: AtomicU64,
}

impl Tier {
    /// Every slot up to the elastic maximum, built eagerly — service,
    /// owner stamp, orphan stack, stats, telemetry — and all dormant.
    pub(super) fn new(cfg: &NgmConfig, runtime_cfg: &RuntimeConfig) -> Self {
        let cores = ngm_offload::available_cores();
        let total = cfg.elastic.map_or(cfg.shards, |p| p.max);
        let slots = (0..total).map(|i| {
            let core = match cfg.placement {
                // Highest cores first, leaving the low cores — where most
                // runtimes place app threads — alone; float when the
                // machine cannot give every shard its own room.
                CorePlacement::Auto => (cores > total).then(|| cores - 1 - i),
                CorePlacement::Unpinned => None,
                CorePlacement::Base(base) => Some(base + i),
            };
            Slot::new(i, core, runtime_cfg)
        });
        let slots: Box<[Slot]> = slots.collect();
        let control = Arc::new(TraceRing::new(
            CONTROL_THREAD,
            cfg.trace_capacity.max(CONTROL_EVENTS),
        ));
        slots[0].handles.telemetry.adopt_ring(Arc::clone(&control));
        Tier {
            slots,
            generation: AtomicU64::new(0),
            batch_size: cfg.batch_size as u32,
            flush_threshold: cfg.flush_threshold as u32,
            inflight_limit: cfg.inflight_limit,
            fallback: Arc::new(FallbackHeap::new(FALLBACK_OWNER)),
            large: LargeBlocks::default(),
            control,
            ticks: AtomicU64::new(0),
            scale_up: AtomicU64::new(0),
            scale_down: AtomicU64::new(0),
            obs_cycles: AtomicU64::new(0),
        }
    }

    /// Shard `shard`'s lifecycle state.
    pub(crate) fn state(&self, shard: usize) -> ShardLifecycle {
        self.slots[shard].state()
    }

    /// Moves a slot to `state` and bumps the route generation so handles
    /// resync on their next operation.
    pub(super) fn set_state(&self, shard: usize, state: ShardLifecycle) {
        self.slots[shard]
            .state
            .store(state as u8, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current route generation (see [`Tier::set_state`]).
    pub(super) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Shard `shard`'s retained heat frames, oldest first (the raw time
    /// series behind the `/heat` endpoint). Cloned out so the caller
    /// renders without holding the window lock.
    pub(crate) fn frames(&self, shard: usize) -> Vec<HeatFrame> {
        lock(&self.slots[shard].heat).frames().cloned().collect()
    }

    /// The windowed view of every shard as of the last tick: a pure read
    /// (scrapes must not perturb the windows they export).
    pub(super) fn report(&self) -> HeatReport {
        HeatReport {
            shards: self.slots.iter().map(Slot::windowed).collect(),
        }
    }

    /// Records a failure edge implicating `shard` in the control ring:
    /// one push into storage allocated at build, so it never allocates.
    pub(super) fn record_failure(&self, reason: FailureReason, shard: usize) {
        self.control
            .push(TraceEventKind::Failure, reason as u64, shard as u64);
    }

    /// Accumulates cycles spent on observability work (observer threads
    /// only — zero hot-path writers).
    pub(crate) fn record_obs_cycles(&self, cycles: u64) {
        self.obs_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Total observability cycles so far.
    pub(super) fn obs_cycles_total(&self) -> u64 {
        self.obs_cycles.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(shards: usize) -> Tier {
        let cfg = NgmConfig::new()
            .with_shards(shards)
            .with_placement(CorePlacement::Unpinned);
        Tier::new(&cfg, &RuntimeConfig::new())
    }

    #[test]
    fn lifecycle_transitions_bump_generation() {
        let tier = tier(2);
        assert_eq!(tier.state(1), ShardLifecycle::Dormant);
        let g0 = tier.generation();
        tier.set_state(1, ShardLifecycle::Serving);
        assert_eq!(tier.state(1), ShardLifecycle::Serving);
        assert!(tier.generation() > g0);
    }

    #[test]
    fn a_slot_runs_between_spawn_and_stop_and_parks_otherwise() {
        let tier = tier(1);
        let slot = &tier.slots[0];
        assert!(slot.is_parked() && slot.with_runtime(|_| ()).is_none());
        assert!(slot.register(false).0.is_none(), "no thread, no client");
        slot.spawn(RuntimeConfig::new()).expect("spawn");
        slot.spawn(RuntimeConfig::new())
            .expect("a second spawn is a no-op");
        assert_eq!(slot.epoch(), 1);
        assert!(!slot.is_parked() && slot.with_runtime(|_| ()).is_some());
        let (client, epoch) = slot.register(false);
        assert!(client.is_some() && epoch == 1);
        drop(client);
        slot.stop();
        slot.stop();
        assert!(slot.is_parked() && slot.with_runtime(|_| ()).is_none());
        assert!(slot.is_drained());
        slot.spawn(RuntimeConfig::new()).expect("respawn");
        assert_eq!(slot.epoch(), 2);
        slot.stop();
        let (service, failure) = slot.take_parked();
        assert!(service.is_some() && failure.is_none());
        assert!(!slot.is_parked());
    }

    #[test]
    fn settled_heat_needs_two_frames() {
        let tier = tier(1);
        let slot = &tier.slots[0];
        assert!(slot.settled_heat().is_none(), "zero frames: unsettled");
        slot.push_frame(HeatFrame {
            tsc: 10,
            calls: 100,
            ..HeatFrame::default()
        });
        assert!(slot.settled_heat().is_none(), "one frame: unsettled");
        slot.push_frame(HeatFrame {
            tsc: 20,
            calls: 150,
            ..HeatFrame::default()
        });
        let d = slot.settled_heat().expect("two frames settle the window");
        assert_eq!(d.heat.calls, 50, "delta spans the two frames");
    }

    #[test]
    fn a_tier_reads_all_zero_until_frames_arrive() {
        let tier = tier(1);
        assert_eq!(tier.slots[0].windowed().score(), 0);
        let empty = tier.report();
        assert_eq!(empty.shards.len(), 1, "an un-ticked shard still reports");
        assert_eq!(
            (empty.shards[0].heat.calls, empty.shards[0].score()),
            (0, 0)
        );
        tier.slots[0].push_frame(HeatFrame {
            tsc: 10,
            ring_occupancy: 2,
            calls: 5,
            deadlines: 1,
            ..HeatFrame::default()
        });
        assert_eq!(tier.report().shards[0].heat.calls, 5);
        assert_eq!(tier.slots[0].windowed().score(), 2 + 4);
        assert!(tier.report().render().contains("shard 0:"));
    }

    #[test]
    fn a_poisoned_window_still_scores() {
        // `windowed` sits on the allocation path: a panic in some scrape
        // thread holding a window lock must not turn every later reroute
        // into a panic inside `alloc`.
        let tier = Arc::new(tier(1));
        let poisoner = Arc::clone(&tier);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.slots[0].heat.lock().unwrap();
            panic!("poison the window");
        })
        .join();
        let slot = &tier.slots[0];
        assert!(slot.heat.is_poisoned());
        assert_eq!(slot.windowed().score(), 0);
        slot.push_frame(HeatFrame::default());
        assert_eq!(tier.frames(0).len(), 1);
        assert!(slot.settled_heat().is_none());
        assert_eq!(tier.report().shards.len(), 1);
    }
}
