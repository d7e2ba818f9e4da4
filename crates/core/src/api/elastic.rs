//! The elastic controller: threshold-and-streak scaling decisions over
//! the heat windows, drain and retire of a shard, and the background
//! [`Autoscaler`] ticker.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ngm_offload::OffloadRuntime;
use ngm_telemetry::trace::TraceEventKind;
use ngm_telemetry::window::HeatFrame;

use super::lock;
use super::tier::Ngm;
use crate::config::{DRAIN_PATIENCE, HIGH_WATER, LOW_WATER, SUSTAIN};
use crate::heat::{pick_coolest, ShardLifecycle};

#[derive(Debug, Default)]
pub(super) struct ControllerState {
    pub(super) hot_streak: u32,
    pub(super) cold_streak: u32,
    pub(super) draining: Option<DrainState>,
}

#[derive(Debug)]
pub(super) struct DrainState {
    pub(super) shard: usize,
    pub(super) evals: u32,
}

/// What one elastic-controller evaluation decided (see
/// [`Ngm::scaling_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No action: the tier is between the water marks, a streak has not
    /// sustained yet, some serving shard's heat window is not settled
    /// (the static-policy fallback), or the tier is not elastic.
    Hold,
    /// A dormant/retired slot was spawned and is now serving.
    ScaleUp {
        /// The spawned slot.
        shard: usize,
    },
    /// The coolest retirable shard was gated and is draining toward a
    /// zero alloc/free balance.
    DrainBegun {
        /// The draining shard.
        shard: usize,
    },
    /// A draining shard reached zero balance; its thread was joined and
    /// its service parked.
    Retired {
        /// The retired slot.
        shard: usize,
    },
    /// A draining shard failed to reach zero balance within
    /// [`DRAIN_PATIENCE`] evaluations (e.g. it is wedged); it was
    /// returned to serving rather than wedging the controller with it.
    DrainAborted {
        /// The shard returned to serving.
        shard: usize,
    },
}

impl Ngm {
    /// Runs one controller evaluation against the heat frames already in
    /// the windows (pushing none), and returns what it decided: the
    /// second half of [`Ngm::tick`], which is its only caller in the
    /// tier. Public for deterministic tests that inject frames via
    /// [`Ngm::inject_heat`] instead of sampling real load.
    ///
    /// Always [`ScaleDecision::Hold`] for a non-elastic tier.
    pub fn scaling_tick(&self) -> ScaleDecision {
        let mut st = lock(&self.controller);
        self.evaluate_scaling(&mut st)
    }

    fn evaluate_scaling(&self, st: &mut ControllerState) -> ScaleDecision {
        let Some(policy) = self.elastic else {
            return ScaleDecision::Hold;
        };
        // A drain in progress owns the controller until it completes or
        // runs out of patience; no other scaling happens meanwhile.
        if let Some(drain) = &mut st.draining {
            let shard = drain.shard;
            if self.tier.slots[shard].is_drained() {
                st.draining = None;
                self.finish_retire(shard);
                return ScaleDecision::Retired { shard };
            }
            drain.evals += 1;
            if drain.evals >= DRAIN_PATIENCE {
                // Wedged mid-drain: reopen the shard rather than hang.
                st.draining = None;
                self.tier.slots[shard].with_runtime(OffloadRuntime::end_retire);
                self.tier.set_state(shard, ShardLifecycle::Serving);
                self.push_scale_event(4, shard);
                return ScaleDecision::DrainAborted { shard };
            }
            return ScaleDecision::Hold;
        }
        let serving = self.serving_shards();
        if serving.is_empty() {
            return ScaleDecision::Hold;
        }
        // Load metric: windowed heat score plus windowed calls, averaged
        // per serving shard. Every serving shard's window must be settled
        // (>= 2 frames) or the controller falls back to the static
        // policy — a single cumulative-since-start frame reads as a
        // garbage delta.
        let mut loads = Vec::with_capacity(serving.len());
        for &s in &serving {
            match self.tier.slots[s].settled_heat() {
                Some(sh) => loads.push((s, sh.score().saturating_add(sh.heat.calls))),
                None => {
                    st.hot_streak = 0;
                    st.cold_streak = 0;
                    return ScaleDecision::Hold;
                }
            }
        }
        let mean = loads.iter().map(|&(_, l)| l).sum::<u64>() / serving.len() as u64;
        if mean > HIGH_WATER && serving.len() < policy.max {
            st.hot_streak += 1;
            st.cold_streak = 0;
            if st.hot_streak >= SUSTAIN {
                st.hot_streak = 0;
                if let Some(slot) = self.pick_spawn_slot() {
                    if self.spawn_slot(slot).is_ok() {
                        self.tier.scale_up.fetch_add(1, Ordering::Relaxed);
                        self.push_scale_event(1, slot);
                        return ScaleDecision::ScaleUp { shard: slot };
                    }
                }
            }
        } else if mean < LOW_WATER && serving.len() > policy.min {
            st.cold_streak += 1;
            st.hot_streak = 0;
            if st.cold_streak >= SUSTAIN {
                st.cold_streak = 0;
                // Retire the coolest shard outside the resident floor
                // (slots `0..min` never retire).
                let candidates = loads.iter().copied().filter(|&(s, _)| s >= policy.min);
                if let Some(victim) = pick_coolest(candidates) {
                    self.gate_for_drain(victim);
                    st.draining = Some(DrainState {
                        shard: victim,
                        evals: 0,
                    });
                    self.push_scale_event(2, victim);
                    return ScaleDecision::DrainBegun { shard: victim };
                }
            }
        } else {
            st.hot_streak = 0;
            st.cold_streak = 0;
        }
        ScaleDecision::Hold
    }

    /// The slot to spawn next: the lowest-indexed dormant/retired slot
    /// whose service is parked.
    fn pick_spawn_slot(&self) -> Option<usize> {
        self.tier.slots.iter().position(|slot| {
            matches!(
                slot.state(),
                ShardLifecycle::Dormant | ShardLifecycle::Retired
            ) && slot.is_parked()
        })
    }

    /// Gates `shard` against new synchronous calls and marks it draining.
    fn gate_for_drain(&self, shard: usize) {
        self.tier.slots[shard].with_runtime(OffloadRuntime::begin_retire);
        self.tier.set_state(shard, ShardLifecycle::Draining);
    }

    /// Starts draining `shard` toward retirement, as if the controller
    /// had picked it: new allocations route elsewhere while address-
    /// routed frees keep landing until its balance reaches zero, at which
    /// point a later evaluation joins its thread. Returns `false` (and
    /// does nothing) when the tier is not elastic, another drain is in
    /// flight, `shard` is inside the resident floor or not serving, or
    /// retiring it would leave fewer than `min` shards.
    pub fn begin_retire(&self, shard: usize) -> bool {
        let Some(policy) = self.elastic else {
            return false;
        };
        let mut st = lock(&self.controller);
        if st.draining.is_some()
            || shard < policy.min
            || shard >= self.num_shards()
            || self.tier.state(shard) != ShardLifecycle::Serving
            || self.serving_shards().len() <= policy.min
        {
            return false;
        }
        self.gate_for_drain(shard);
        st.draining = Some(DrainState { shard, evals: 0 });
        self.push_scale_event(2, shard);
        true
    }

    /// Joins a drained shard's thread and parks its service for a later
    /// respawn.
    fn finish_retire(&self, shard: usize) {
        self.tier.slots[shard].stop();
        self.tier.set_state(shard, ShardLifecycle::Retired);
        self.tier.scale_down.fetch_add(1, Ordering::Relaxed);
        self.push_scale_event(3, shard);
    }

    fn push_scale_event(&self, code: u64, shard: usize) {
        self.tier
            .control
            .push(TraceEventKind::Scale, code, shard as u64);
    }

    /// The slots currently serving, in index order.
    pub fn serving_shards(&self) -> Vec<usize> {
        (0..self.num_shards())
            .filter(|&s| self.tier.state(s) == ShardLifecycle::Serving)
            .collect()
    }

    /// Every slot's lifecycle state, indexed by slot.
    pub fn shard_states(&self) -> Vec<ShardLifecycle> {
        self.tier.slots.iter().map(|slot| slot.state()).collect()
    }

    /// Pushes a heat frame into `shard`'s window, exactly as a
    /// [`Ngm::tick`] sample would — the deterministic way for tests (and
    /// replay drivers) to steer the controller without real load. Frames
    /// are cumulative: the window differentiates them.
    pub fn inject_heat(&self, shard: usize, frame: HeatFrame) {
        self.tier.slots[shard].push_frame(frame);
    }

    /// Times the controller scales up / down so far (exported as
    /// `ngm_scale_up_total` / `ngm_scale_down_total`).
    pub fn scale_counts(&self) -> (u64, u64) {
        (
            self.tier.scale_up.load(Ordering::Relaxed),
            self.tier.scale_down.load(Ordering::Relaxed),
        )
    }

    /// Whether an in-flight drain has already outlived
    /// [`DRAIN_PATIENCE`] (the controller will abort it on its next tick;
    /// until then the tier reports degraded). `false` when the
    /// controller is busy deciding — a held lock means ticks are live.
    pub(crate) fn drain_overdue(&self) -> bool {
        match self.controller.try_lock() {
            Ok(st) => st
                .draining
                .as_ref()
                .is_some_and(|d| d.evals >= DRAIN_PATIENCE),
            Err(_) => false,
        }
    }

    /// Spawns the background ticker: a thread that calls [`Ngm::tick`]
    /// every `interval`, for deployments that run no observer (whose
    /// ticker is this same thread — run one or the other, or the windows
    /// span half the interval each was given). The thread holds only a
    /// weak reference and exits on its own once the tier is dropped; stop
    /// it explicitly (or drop the returned handle) before
    /// [`Ngm::shutdown`] to avoid it briefly reviving the `Arc`.
    ///
    /// # Errors
    ///
    /// Fails when the OS refuses the thread.
    pub fn autoscaler(self: &Arc<Self>, interval: Duration) -> io::Result<Autoscaler> {
        Autoscaler::spawn(Arc::downgrade(self), interval, |_| {})
    }
}

/// How often the ticker re-checks its stop flag while sleeping between
/// ticks, so [`Autoscaler::stop`] returns promptly even under a long
/// interval.
const STOP_POLL: Duration = Duration::from_millis(10);

/// Guard for the tier's background ticker ([`Ngm::autoscaler`], or the
/// one inside a running [`crate::Observer`]): the only thread in the
/// crate that calls [`Ngm::tick`] on a cadence. Stops and joins the
/// thread on [`Autoscaler::stop`] or drop.
#[derive(Debug)]
pub struct Autoscaler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Autoscaler {
    /// The one place the crate spawns a ticking thread: every `interval`
    /// (clamped to 1ms) it upgrades `weak`, runs [`Ngm::tick`], then
    /// hands the tier to `after_tick` (the observer's recorder hook).
    pub(crate) fn spawn(
        weak: Weak<Ngm>,
        interval: Duration,
        mut after_tick: impl FnMut(&Ngm) + Send + 'static,
    ) -> io::Result<Autoscaler> {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ngm-ticker".into())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    let step = STOP_POLL.min(interval - slept);
                    std::thread::sleep(step);
                    slept += step;
                }
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                let Some(ngm) = weak.upgrade() else { return };
                ngm.tick();
                after_tick(&ngm);
            })?;
        Ok(Autoscaler {
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the ticker thread and waits for it to exit.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Autoscaler {
    fn drop(&mut self) {
        self.halt();
    }
}
