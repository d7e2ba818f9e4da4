//! Wait policies for the client and service sides of the offload channel.
//!
//! The paper's prototype busy-spins both sides: the client spins on
//! `malloc_done`, the service core spins polling `malloc_start`. Spinning
//! minimizes request latency (the paper's whole argument hinges on keeping
//! the round trip near the raw atomic cost) but burns a core; yielding and
//! parking trade latency for efficiency. Ablation A in the reproduction
//! sweeps these policies.

use std::time::{Duration, Instant};

/// The observable state of a wait loop: which escalation stage a thread
/// is in after a given number of fruitless probes. Telemetry samples
/// these (the service loop exports phase-transition counts), so the
/// mapping from iteration count to phase is public API, not an
/// implementation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum WaitPhase {
    /// Busy-spinning (or actively finding work).
    #[default]
    Spin = 0,
    /// Interleaving `yield_now`.
    Yield = 1,
    /// Sleeping in escalating intervals.
    Sleep = 2,
    /// The wait's deadline budget is exhausted; the caller must stop
    /// waiting and surface a typed error instead of blocking further.
    Timeout = 3,
}

impl WaitPhase {
    /// Stable lowercase label used by exporters.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WaitPhase::Spin => "spin",
            WaitPhase::Yield => "yield",
            WaitPhase::Sleep => "sleep",
            WaitPhase::Timeout => "timeout",
        }
    }

    /// Inverse of `as u32` casts used when a phase travels through an
    /// atomic; unknown values collapse to `Spin`.
    #[must_use]
    pub const fn from_u32(v: u32) -> Self {
        match v {
            1 => WaitPhase::Yield,
            2 => WaitPhase::Sleep,
            3 => WaitPhase::Timeout,
            _ => WaitPhase::Spin,
        }
    }
}

/// Pure spins `WaitStrategy::Backoff` takes before its first yield.
const BACKOFF_SPINS: u32 = 16;

/// How a thread waits for a condition that another core will signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStrategy {
    /// Busy-spin with a CPU relax hint. Lowest latency, one core burned.
    Spin,
    /// Spin `spins` times, then interleave `std::thread::yield_now`.
    SpinYield {
        /// Number of pure spins before the first yield.
        spins: u32,
    },
    /// Spin briefly, then sleep in escalating intervals. Highest latency,
    /// friendliest to oversubscribed machines.
    Backoff,
}

impl Default for WaitStrategy {
    fn default() -> Self {
        // On a machine with fewer than two cores the paper's busy-spin
        // protocol would deadlock-by-starvation: the spinner can occupy the
        // only core the producer needs. Default accordingly.
        if crate::pin::available_cores() >= 2 {
            WaitStrategy::SpinYield { spins: 64 }
        } else {
            WaitStrategy::Backoff
        }
    }
}

impl WaitStrategy {
    /// The escalation phase this strategy is in after `iters` fruitless
    /// probes. `pause` acts according to `phase(iters + 1)`; the split
    /// lets the service loop observe (and export) phase transitions
    /// without duplicating the thresholds.
    #[inline]
    #[must_use]
    pub fn phase(self, iters: u32) -> WaitPhase {
        match self {
            WaitStrategy::Spin => WaitPhase::Spin,
            WaitStrategy::SpinYield { spins } => {
                if iters < spins {
                    WaitPhase::Spin
                } else {
                    WaitPhase::Yield
                }
            }
            WaitStrategy::Backoff => {
                if iters < BACKOFF_SPINS {
                    WaitPhase::Spin
                } else if iters < 64 {
                    WaitPhase::Yield
                } else {
                    WaitPhase::Sleep
                }
            }
        }
    }

    /// This strategy with its sleep phase cut off: `Backoff` spins as
    /// long as it does and then only yields; the others never sleep
    /// anyway. For a wait that must not block its thread, such as a
    /// pending future's `poll`.
    #[must_use]
    pub fn without_sleep(self) -> WaitStrategy {
        match self {
            WaitStrategy::Backoff => WaitStrategy::SpinYield {
                spins: BACKOFF_SPINS,
            },
            s => s,
        }
    }

    /// One backoff step; `iters` is the caller's loop counter.
    #[inline]
    pub fn pause(self, iters: &mut u32) {
        *iters = iters.saturating_add(1);
        match self.phase(*iters) {
            WaitPhase::Spin => std::hint::spin_loop(),
            WaitPhase::Yield => std::thread::yield_now(),
            WaitPhase::Sleep => {
                // Only Backoff reaches here. Cap the sleep low: on
                // oversubscribed machines the round-trip latency is
                // bounded by this interval, and a 32 us ceiling keeps the
                // allocator usable even when client and service share one
                // core.
                let exp = (*iters - 64).min(5);
                std::thread::sleep(Duration::from_micros(1 << exp));
            }
            // A bare strategy has no budget, so `phase` never reports
            // Timeout; only `WaitState` (which owns a budget) does.
            WaitPhase::Timeout => unreachable!("WaitStrategy::phase never times out"),
        }
    }
}

/// The shared wait-loop state machine: strategy + iteration counter +
/// optional deadline budget, in one place.
///
/// Every blocking loop in the offload layer (slot waits, ring push
/// retries, the service poll loop) routes through one of these instead of
/// hand-rolling `yield_now()` loops, so (a) the configured
/// [`WaitStrategy`] is what actually runs — Ablation A measures the
/// policy it selected — and (b) every wait escalates
/// spin → yield → sleep → **timeout** rather than hanging forever.
///
/// The deadline check is kept off the hot path: `Instant::now()` is only
/// consulted once the wait has escalated past the spin phase, or every
/// 64th probe while still spinning.
#[derive(Debug, Clone, Copy)]
pub struct WaitState {
    strategy: WaitStrategy,
    budget: Option<Duration>,
    iters: u32,
    started: Option<Instant>,
    expired: bool,
}

impl WaitState {
    /// A wait loop with no deadline: pure strategy escalation.
    #[must_use]
    pub fn new(strategy: WaitStrategy) -> Self {
        Self::with_budget(strategy, None)
    }

    /// A wait loop that reports timeout once `budget` has elapsed.
    /// `None` means unbounded (identical to [`WaitState::new`]).
    #[must_use]
    pub fn with_budget(strategy: WaitStrategy, budget: Option<Duration>) -> Self {
        WaitState {
            strategy,
            budget,
            iters: 0,
            started: None,
            expired: false,
        }
    }

    /// Fruitless probes so far.
    #[must_use]
    pub fn iters(&self) -> u32 {
        self.iters
    }

    /// The escalation phase the *next* probe will wait in;
    /// [`WaitPhase::Timeout`] once the budget is exhausted.
    #[must_use]
    pub fn phase(&self) -> WaitPhase {
        if self.expired {
            WaitPhase::Timeout
        } else {
            self.strategy.phase(self.iters)
        }
    }

    /// How long this wait has been going (zero before the first pause).
    #[must_use]
    pub fn waited(&self) -> Duration {
        self.started.map_or(Duration::ZERO, |t| t.elapsed())
    }

    /// One backoff step. Returns `true` if the caller should keep
    /// waiting, `false` if the deadline budget is exhausted (in which
    /// case no pause was taken and the caller must bail out with a typed
    /// error). Without a budget this always returns `true`.
    #[inline]
    pub fn pause(&mut self) -> bool {
        if let Some(budget) = self.budget {
            let started = *self.started.get_or_insert_with(Instant::now);
            let check =
                self.iters & 63 == 0 || !matches!(self.strategy.phase(self.iters), WaitPhase::Spin);
            if check && started.elapsed() >= budget {
                self.expired = true;
                return false;
            }
        }
        self.strategy.pause(&mut self.iters);
        true
    }

    /// Rearms the machine after progress was made: the iteration counter,
    /// deadline clock, and expired flag all reset.
    #[inline]
    pub fn reset(&mut self) {
        self.iters = 0;
        self.started = None;
        self.expired = false;
    }

    /// Waits until `cond` holds or the budget expires. Returns `true` if
    /// the condition was met, `false` on timeout.
    #[inline]
    pub fn wait_until(&mut self, mut cond: impl FnMut() -> bool) -> bool {
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

    #[test]
    fn wait_until_returns_when_condition_true() {
        let mut n = 0;
        assert!(WaitState::new(WaitStrategy::Spin).wait_until(|| {
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
            WaitState::new(WaitStrategy::Backoff).wait_until(|| f2.load(Ordering::Acquire) == 7);
            d2.store(true, Ordering::Release);
        });
        std::thread::sleep(Duration::from_millis(5));
        assert!(!done.load(Ordering::Acquire));
        flag.store(7, Ordering::Release);
        h.join().unwrap();
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn backoff_escalates_without_panicking() {
        let mut iters = 0;
        for _ in 0..70 {
            WaitStrategy::Backoff.pause(&mut iters);
        }
        assert_eq!(iters, 70);
    }

    #[test]
    fn phases_escalate_at_documented_thresholds() {
        let b = WaitStrategy::Backoff;
        assert_eq!(b.phase(0), WaitPhase::Spin);
        assert_eq!(b.phase(15), WaitPhase::Spin);
        assert_eq!(b.phase(16), WaitPhase::Yield);
        assert_eq!(b.phase(63), WaitPhase::Yield);
        assert_eq!(b.phase(64), WaitPhase::Sleep);

        let sy = WaitStrategy::SpinYield { spins: 8 };
        assert_eq!(sy.phase(7), WaitPhase::Spin);
        assert_eq!(sy.phase(8), WaitPhase::Yield);
        assert_eq!(sy.phase(u32::MAX), WaitPhase::Yield);

        assert_eq!(WaitStrategy::Spin.phase(u32::MAX), WaitPhase::Spin);
    }

    #[test]
    fn without_sleep_keeps_the_spins_and_never_sleeps() {
        for s in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield { spins: 8 },
            WaitStrategy::Backoff,
        ] {
            let cut = s.without_sleep();
            for iters in [0, 7, 8, 15, 16, 63, 64, 1_000, u32::MAX] {
                let (was, is) = (s.phase(iters), cut.phase(iters));
                if was == WaitPhase::Sleep {
                    assert_eq!(is, WaitPhase::Yield, "{s:?} at {iters}");
                } else {
                    assert_eq!(is, was, "{s:?} at {iters}");
                }
            }
        }
    }

    #[test]
    fn phase_u32_roundtrip() {
        for p in [
            WaitPhase::Spin,
            WaitPhase::Yield,
            WaitPhase::Sleep,
            WaitPhase::Timeout,
        ] {
            assert_eq!(WaitPhase::from_u32(p as u32), p);
        }
        assert_eq!(WaitPhase::from_u32(99), WaitPhase::Spin);
    }

    #[test]
    fn wait_state_without_budget_never_times_out() {
        let mut w = WaitState::new(WaitStrategy::Spin);
        for _ in 0..10_000 {
            assert!(w.pause());
        }
        assert_eq!(w.phase(), WaitPhase::Spin);
    }

    #[test]
    fn wait_state_reports_timeout_after_budget() {
        let mut w = WaitState::with_budget(WaitStrategy::Backoff, Some(Duration::from_millis(2)));
        let ok = w.wait_until(|| false);
        assert!(!ok, "condition never holds, budget must expire");
        assert_eq!(w.phase(), WaitPhase::Timeout);
        assert!(w.waited() >= Duration::from_millis(2));
    }

    #[test]
    fn wait_state_succeeds_before_budget() {
        let mut w = WaitState::with_budget(WaitStrategy::Spin, Some(Duration::from_secs(5)));
        let mut n = 0;
        assert!(w.wait_until(|| {
            n += 1;
            n == 10
        }));
        assert_eq!(n, 10);
        assert_eq!(w.iters(), 9);
    }

    #[test]
    fn wait_state_reset_rearms_the_deadline() {
        let mut w = WaitState::with_budget(WaitStrategy::Spin, Some(Duration::from_millis(1)));
        assert!(!w.wait_until(|| false));
        w.reset();
        assert_eq!(w.phase(), WaitPhase::Spin);
        assert_eq!(w.iters(), 0);
        assert!(w.pause(), "fresh budget after reset");
    }

    #[test]
    fn wait_state_times_out_on_absent_store() {
        let flag = AtomicU32::new(0);
        let mut w = WaitState::with_budget(
            WaitStrategy::SpinYield { spins: 4 },
            Some(Duration::from_millis(2)),
        );
        assert!(!w.wait_until(|| flag.load(Ordering::Acquire) == 1));
        flag.store(1, Ordering::Release);
        w.reset();
        assert!(w.wait_until(|| flag.load(Ordering::Acquire) == 1));
    }

    #[test]
    fn default_strategy_matches_core_count() {
        let s = WaitStrategy::default();
        if crate::pin::available_cores() >= 2 {
            assert!(matches!(s, WaitStrategy::SpinYield { .. }));
        } else {
            assert_eq!(s, WaitStrategy::Backoff);
        }
    }
}
