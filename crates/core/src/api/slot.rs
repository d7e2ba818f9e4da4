//! One [`Slot`] per service shard, and the [`Tier`] that holds them:
//! the state [`Ngm`](super::Ngm) and every
//! [`NgmHandle`](super::NgmHandle) share through a single `Arc`.
//!
//! A slot's thread starts when the tier is built and runs until
//! [`Ngm::shutdown`](super::Ngm::shutdown) joins it ([`Slot::stop`]), or
//! until [`Ngm::stop_shard`](super::Ngm::stop_shard) tells it to exit
//! early. Everything else that persists for the shard — counters,
//! telemetry, fault knobs, the orphan stack, the heap mirror — sits
//! beside the thread cell in the same struct, readable whether or not
//! the thread still runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ngm_heap::{DeadBlockStack, FallbackHeap, HeapStats, LargeBlocks};
use ngm_offload::{ClientHandle, OffloadRuntime, RuntimeConfig, RuntimeHandles, ServiceError};
use ngm_telemetry::trace::{TraceEventKind, TraceRing};

use super::lock;
use super::tier::FailureReason;
use crate::config::{CorePlacement, NgmConfig, FALLBACK_OWNER};
use crate::service::MallocService;
use crate::watch::SharedHeapStats;

/// One service-shard slot.
pub(crate) struct Slot {
    /// The running thread, from build until [`Slot::stop`] takes it.
    runtime: Mutex<Option<OffloadRuntime<MallocService>>>,
    /// Stats, telemetry and fault knobs — readable without the runtime,
    /// and after its thread is gone.
    pub(super) handles: RuntimeHandles,
    /// Where undeliverable frees of this shard's blocks are diverted.
    pub(super) orphans: Arc<DeadBlockStack>,
    /// The service's idle-published heap statistics, readable while its
    /// thread owns it.
    heap_watch: Arc<SharedHeapStats>,
}

impl Slot {
    /// Builds shard `cfg.shard`'s service and starts its thread.
    fn start(cfg: RuntimeConfig) -> Result<Self, ServiceError> {
        let orphans = Arc::new(DeadBlockStack::new());
        let service = MallocService::for_shard(cfg.shard as u16, Arc::clone(&orphans));
        // Keep observing the heap after the service thread takes the
        // service away from us.
        let heap_watch = Arc::clone(service.heap_watch());
        let handles = RuntimeHandles::fresh(&cfg);
        let runtime = OffloadRuntime::try_start_shared(service, cfg, &handles)?;
        Ok(Slot {
            runtime: Mutex::new(Some(runtime)),
            handles,
            orphans,
            heap_watch,
        })
    }

    /// Runs `f` on the slot's runtime; `None` once [`Slot::stop`] took it.
    pub(super) fn with_runtime<R>(
        &self,
        f: impl FnOnce(&OffloadRuntime<MallocService>) -> R,
    ) -> Option<R> {
        lock(&self.runtime).as_ref().map(f)
    }

    /// Registers a client with the slot's thread.
    pub(super) fn register(&self) -> ClientHandle<MallocService> {
        self.with_runtime(OffloadRuntime::register_client)
            .expect("a slot runs until the tier shuts down")
    }

    /// Stops the slot's thread and recovers its service: the thread
    /// drains its rings and is joined, and the orphans pushed since its
    /// last idle round (deadline-rerouted frees, teardown races) are
    /// reclaimed now that the service is ours again. A thread that
    /// panicked leaves its [`ServiceError`] instead. The one way a
    /// shard's thread is joined: [`Ngm::shutdown`](super::Ngm::shutdown)
    /// calls it once per slot.
    pub(super) fn stop(&self) -> Result<MallocService, ServiceError> {
        let runtime = lock(&self.runtime)
            .take()
            .ok_or(ServiceError::AlreadyShutDown)?;
        let (mut service, _) = runtime.try_shutdown().map_err(|failure| failure.error)?;
        service.reclaim_orphans();
        Ok(service)
    }

    /// The service heap as last published from an idle round.
    pub(super) fn heap_mirror(&self) -> HeapStats {
        self.heap_watch.load()
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
    pub(super) batch_size: u32,
    pub(super) flush_threshold: u32,
    /// The inline allocator of last resort. Lazy: maps nothing until the
    /// first time a handle exhausts every shard (all deadlined or dead)
    /// and has to serve an allocation itself.
    pub(super) fallback: Arc<FallbackHeap>,
    /// The ledger every handle maps and unmaps large (non-class) blocks
    /// through, on its own thread: they never enter a shard.
    pub(super) large: LargeBlocks,
    /// The control ring: every failure edge, in order. Built with the
    /// tier and registered with slot 0's telemetry, so a drain or peek
    /// of the trace sees these events in the same stream as the rest.
    /// Its storage never grows, so recording a failure never allocates —
    /// which keeps it safe under the global hook.
    pub(crate) control: Arc<TraceRing>,
    /// Cycles spent on observability work (metrics scrapes, recorder
    /// appends, endpoint renders), written only by the observer/scrape
    /// threads — never by the allocation hot path.
    obs_cycles: AtomicU64,
}

impl Tier {
    /// Builds every slot and starts its thread, each pinned as
    /// `cfg.placement` says and configured from `runtime_cfg`.
    pub(super) fn start(cfg: &NgmConfig, runtime_cfg: RuntimeConfig) -> Result<Self, ServiceError> {
        let cores = ngm_offload::available_cores();
        let slots = (0..cfg.shards).map(|shard| {
            let core = match cfg.placement {
                // Highest cores first, leaving the low cores — where most
                // runtimes place app threads — alone; float when the
                // machine cannot give every shard its own room.
                CorePlacement::Auto => (cores > cfg.shards).then(|| cores - 1 - shard),
                CorePlacement::Unpinned => None,
                CorePlacement::Base(base) => Some(base + shard),
            };
            Slot::start(RuntimeConfig {
                core,
                shard,
                ..runtime_cfg
            })
        });
        let slots = slots.collect::<Result<Box<[Slot]>, _>>()?;
        let control = Arc::new(TraceRing::new(
            CONTROL_THREAD,
            cfg.trace_capacity.max(CONTROL_EVENTS),
        ));
        slots[0].handles.telemetry.adopt_ring(Arc::clone(&control));
        Ok(Tier {
            slots,
            batch_size: cfg.batch_size as u32,
            flush_threshold: cfg.flush_threshold as u32,
            fallback: Arc::new(FallbackHeap::new(FALLBACK_OWNER)),
            large: LargeBlocks::default(),
            control,
            obs_cycles: AtomicU64::new(0),
        })
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
        Tier::start(&cfg, RuntimeConfig::new()).expect("threads spawn")
    }

    #[test]
    fn a_slot_runs_from_start_until_stop() {
        let tier = tier(1);
        let slot = &tier.slots[0];
        assert!(slot.with_runtime(|_| ()).is_some());
        drop(slot.register());
        assert!(slot.stop().is_ok(), "an orderly exit recovers the service");
        assert!(slot.with_runtime(|_| ()).is_none());
        assert_eq!(slot.stop().err(), Some(ServiceError::AlreadyShutDown));
    }
}
