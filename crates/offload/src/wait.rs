//! The one wait ladder for the client and service sides of the offload
//! channel.
//!
//! The paper's prototype busy-spins both sides: the client spins on
//! `malloc_done`, the service core spins polling `malloc_start`. Spinning
//! minimizes request latency (the paper's whole argument hinges on keeping
//! the round trip near the raw atomic cost) but needs a core per spinner.
//! Every wait here climbs one ladder — spin, then yield, then (only on a
//! host with fewer than two cores) sleep — whose rungs the runtime derives
//! from the core count when it starts. Nothing else selects it: paired
//! against it, pure spin and spin-then-sleep did not separate
//! (EXPERIMENTS.md, Ablation A).

use std::time::{Duration, Instant};

/// The observable state of a wait loop: which escalation stage a thread
/// is in after a given number of fruitless probes. The service loop
/// exports its current phase as a gauge and counts its transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WaitPhase {
    /// Busy-spinning (or actively finding work).
    #[default]
    Spin = 0,
    /// Interleaving `yield_now`.
    Yield = 1,
    /// Sleeping in escalating intervals.
    Sleep = 2,
}

impl WaitPhase {
    /// Inverse of `as u32` casts used when a phase travels through an
    /// atomic; unknown values collapse to `Spin`.
    #[must_use]
    pub const fn from_u32(v: u32) -> Self {
        match v {
            1 => WaitPhase::Yield,
            2 => WaitPhase::Sleep,
            _ => WaitPhase::Spin,
        }
    }
}

/// How a thread waits for a condition that another core will signal:
/// `spins` fruitless probes spinning, then yielding until probe
/// `sleep_from`, then sleeping 1–32 µs a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ladder {
    spins: u32,
    /// `u32::MAX` never sleeps.
    sleep_from: u32,
}

impl Ladder {
    /// The ladder for a host of `cores` logical cores. With two or more a
    /// spinner never takes the core its peer needs, so it spins briefly
    /// and yields from then on. With one, the paper's busy-spin protocol
    /// would deadlock by starvation — the spinner holds the only core the
    /// producer needs — so the wait yields early and then sleeps.
    pub(crate) const fn for_cores(cores: usize) -> Self {
        if cores >= 2 {
            Ladder {
                spins: 64,
                sleep_from: u32::MAX,
            }
        } else {
            Ladder {
                spins: 16,
                sleep_from: 64,
            }
        }
    }

    /// The escalation phase after `iters` fruitless probes. `pause` acts
    /// according to `phase(iters + 1)`; the split lets the service loop
    /// observe (and export) phase transitions without duplicating the
    /// thresholds.
    #[inline]
    fn phase(self, iters: u32) -> WaitPhase {
        if iters < self.spins {
            WaitPhase::Spin
        } else if iters < self.sleep_from || self.sleep_from == u32::MAX {
            WaitPhase::Yield
        } else {
            WaitPhase::Sleep
        }
    }

    /// One backoff step; `iters` is the caller's loop counter.
    #[inline]
    fn pause(self, iters: &mut u32) {
        *iters = iters.saturating_add(1);
        match self.phase(*iters) {
            WaitPhase::Spin => std::hint::spin_loop(),
            WaitPhase::Yield => std::thread::yield_now(),
            WaitPhase::Sleep => {
                // Cap the sleep low: when client and service share one
                // core the round-trip latency is bounded by this
                // interval, and a 32 us ceiling keeps the allocator
                // usable.
                let exp = (*iters - self.sleep_from).min(5);
                std::thread::sleep(Duration::from_micros(1 << exp));
            }
        }
    }
}

/// The shared wait-loop state machine: ladder + iteration counter +
/// optional deadline budget, in one place.
///
/// Every blocking loop in the offload layer (the client's slot wait, its
/// full-ring retry, the service poll loop) routes through one of these
/// instead of hand-rolling `yield_now()` loops, so every wait climbs the
/// same ladder and a budgeted one gives up rather than hanging forever.
///
/// The deadline check is kept off the hot path: `Instant::now()` is only
/// consulted once the wait has escalated past the spin phase, or every
/// 64th probe while still spinning.
#[derive(Debug)]
pub(crate) struct WaitState {
    ladder: Ladder,
    budget: Option<Duration>,
    iters: u32,
    started: Option<Instant>,
}

impl WaitState {
    /// A wait loop with no deadline: pure ladder escalation.
    pub(crate) fn new(ladder: Ladder) -> Self {
        Self::with_budget(ladder, None)
    }

    /// A wait loop whose `pause` refuses once `budget` has elapsed.
    /// `None` means unbounded (identical to [`WaitState::new`]).
    pub(crate) fn with_budget(ladder: Ladder, budget: Option<Duration>) -> Self {
        WaitState {
            ladder,
            budget,
            iters: 0,
            started: None,
        }
    }

    /// The escalation phase the *next* probe will wait in.
    pub(crate) fn phase(&self) -> WaitPhase {
        self.ladder.phase(self.iters)
    }

    /// How long this wait has been going (zero before the first pause).
    pub(crate) fn waited(&self) -> Duration {
        self.started.map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// One backoff step. Returns `true` if the caller should keep
    /// waiting, `false` if the deadline budget is exhausted (in which
    /// case no pause was taken and the caller must bail out with a typed
    /// error). Without a budget this always returns `true`.
    #[inline]
    pub(crate) fn pause(&mut self) -> bool {
        if let Some(budget) = self.budget {
            let started = *self.started.get_or_insert_with(Instant::now);
            let check =
                self.iters & 63 == 0 || !matches!(self.ladder.phase(self.iters), WaitPhase::Spin);
            if check && started.elapsed() >= budget {
                return false;
            }
        }
        self.ladder.pause(&mut self.iters);
        true
    }

    /// Rearms the machine after progress was made: the iteration counter
    /// and deadline clock reset.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.iters = 0;
        self.started = None;
    }

    /// Waits until `cond` holds or the budget expires. Returns `true` if
    /// the condition was met, `false` on timeout.
    #[inline]
    pub(crate) fn wait_until(&mut self, mut cond: impl FnMut() -> bool) -> bool {
        loop {
            if cond() {
                return true;
            }
            if !self.pause() {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    const ONE_CORE: Ladder = Ladder::for_cores(1);
    const TWO_CORES: Ladder = Ladder::for_cores(2);

    #[test]
    fn wait_until_returns_when_condition_true() {
        let mut n = 0;
        assert!(WaitState::new(TWO_CORES).wait_until(|| {
            n += 1;
            n == 10
        }));
        assert_eq!(n, 10);
    }

    #[test]
    fn wait_until_sees_cross_thread_store() {
        let flag = Arc::new(AtomicU32::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let d2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            WaitState::new(ONE_CORE).wait_until(|| f2.load(Ordering::Acquire) == 7);
            d2.store(true, Ordering::Release);
        });
        std::thread::sleep(Duration::from_millis(5));
        assert!(!done.load(Ordering::Acquire));
        flag.store(7, Ordering::Release);
        h.join().unwrap();
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn one_core_ladder_escalates_without_panicking() {
        let mut iters = 0;
        for _ in 0..70 {
            ONE_CORE.pause(&mut iters);
        }
        assert_eq!(iters, 70);
    }

    #[test]
    fn ladders_escalate_at_the_shipped_thresholds() {
        // One core: spin 16, yield until 64, then sleep.
        assert_eq!(ONE_CORE.phase(0), WaitPhase::Spin);
        assert_eq!(ONE_CORE.phase(15), WaitPhase::Spin);
        assert_eq!(ONE_CORE.phase(16), WaitPhase::Yield);
        assert_eq!(ONE_CORE.phase(63), WaitPhase::Yield);
        assert_eq!(ONE_CORE.phase(64), WaitPhase::Sleep);
        assert_eq!(ONE_CORE.phase(u32::MAX), WaitPhase::Sleep);

        // Two or more: spin 64, then yield, and never sleep.
        for cores in [2, 3, 64] {
            let l = Ladder::for_cores(cores);
            assert_eq!(l, TWO_CORES);
            assert_eq!(l.phase(0), WaitPhase::Spin);
            assert_eq!(l.phase(63), WaitPhase::Spin);
            assert_eq!(l.phase(64), WaitPhase::Yield);
            assert_eq!(l.phase(u32::MAX), WaitPhase::Yield);
        }
        assert_eq!(Ladder::for_cores(0), ONE_CORE);
    }

    #[test]
    fn phase_u32_roundtrip() {
        for p in [WaitPhase::Spin, WaitPhase::Yield, WaitPhase::Sleep] {
            assert_eq!(WaitPhase::from_u32(p as u32), p);
        }
        assert_eq!(WaitPhase::from_u32(99), WaitPhase::Spin);
    }

    #[test]
    fn wait_state_without_budget_never_times_out() {
        let mut w = WaitState::new(TWO_CORES);
        for _ in 0..10_000 {
            assert!(w.pause());
        }
        assert_eq!(w.phase(), WaitPhase::Yield);
    }

    #[test]
    fn wait_state_reports_timeout_after_budget() {
        // The one-core ladder, so the wait reaches its sleep stage (past
        // probe 64) on every host, not only on a one-core one.
        let mut w = WaitState::with_budget(ONE_CORE, Some(Duration::from_millis(2)));
        let ok = w.wait_until(|| false);
        assert!(!ok, "condition never holds, budget must expire");
        // The clock is read from the first yield on, so a spent budget is
        // seen there at the latest.
        assert!(w.phase() >= WaitPhase::Yield, "{w:?}");
        assert!(!w.pause(), "a spent budget keeps refusing");
        assert!(w.waited() >= Duration::from_millis(2));
    }

    #[test]
    fn wait_state_succeeds_before_budget() {
        let mut w = WaitState::with_budget(TWO_CORES, Some(Duration::from_secs(5)));
        let mut n = 0;
        assert!(w.wait_until(|| {
            n += 1;
            n == 10
        }));
        assert_eq!(n, 10);
        assert_eq!(w.iters, 9);
    }

    #[test]
    fn wait_state_reset_rearms_the_deadline() {
        let mut w = WaitState::with_budget(TWO_CORES, Some(Duration::from_millis(1)));
        assert!(!w.wait_until(|| false));
        w.reset();
        assert_eq!(w.phase(), WaitPhase::Spin);
        assert_eq!(w.iters, 0);
        assert!(w.pause(), "fresh budget after reset");
    }

    #[test]
    fn wait_state_times_out_on_absent_store() {
        let flag = AtomicU32::new(0);
        let mut w = WaitState::with_budget(ONE_CORE, Some(Duration::from_millis(2)));
        assert!(!w.wait_until(|| flag.load(Ordering::Acquire) == 1));
        flag.store(1, Ordering::Release);
        w.reset();
        assert!(w.wait_until(|| flag.load(Ordering::Acquire) == 1));
    }
}
