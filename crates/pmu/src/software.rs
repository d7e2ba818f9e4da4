//! The degradation backend: software "counters" for machines where
//! `perf_event_open` is unavailable.
//!
//! Cycles are genuinely measured: the counted thread's CPU time, which
//! [`crate::PmuSession`] reads from that thread's CPU-time clock and
//! converts to cycles; every other event reports whatever the
//! caller [fed](SoftwareCounters::feed) — the repro harness feeds the
//! cache/TLB simulator's counters, labeled as such, so a fallback report
//! still has the full Table 1 shape.

use crate::events::PmuEvent;
use crate::session::{BackendKind, PmuReading};

/// Fed counter values plus a measured cycles interval.
#[derive(Debug, Default)]
pub struct SoftwareCounters {
    fed: [u64; 6],
    start_cycles: u64,
    start_ns: u64,
}

impl SoftwareCounters {
    /// A zeroed backend.
    #[must_use]
    pub fn new() -> Self {
        SoftwareCounters::default()
    }

    /// Sets the value reported for `event`. Feeding
    /// [`PmuEvent::Cycles`] overrides the measured cycles.
    pub fn feed(&mut self, event: PmuEvent, value: u64) {
        self.fed[event.index()] = value;
    }

    /// Marks the interval start: the cycles counted so far and the wall
    /// time.
    pub fn start(&mut self, cycles_now: u64, now_ns: u64) {
        self.start_cycles = cycles_now;
        self.start_ns = now_ns;
    }

    /// Ends the interval and assembles the reading.
    pub fn stop(&mut self, cycles_now: u64, now_ns: u64) -> PmuReading {
        let elapsed_cycles = cycles_now.saturating_sub(self.start_cycles);
        let elapsed_ns = now_ns.saturating_sub(self.start_ns);
        let mut counts = [None; 6];
        for e in PmuEvent::ALL {
            counts[e.index()] = Some(self.fed[e.index()]);
        }
        if self.fed[PmuEvent::Cycles.index()] == 0 {
            counts[PmuEvent::Cycles.index()] = Some(elapsed_cycles);
        }
        PmuReading {
            backend: BackendKind::Software,
            counts,
            time_enabled_ns: elapsed_ns,
            time_running_ns: elapsed_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_cycles_used_unless_fed() {
        let mut sw = SoftwareCounters::new();
        sw.start(1_000, 10);
        let r = sw.stop(1_500, 30);
        assert_eq!(r.get(PmuEvent::Cycles), Some(500));
        assert_eq!(r.time_enabled_ns, 20);
        assert!(!r.multiplexed(), "software backend never multiplexes");

        sw.feed(PmuEvent::Cycles, 42);
        sw.start(2_000, 40);
        let r = sw.stop(9_000, 90);
        assert_eq!(r.get(PmuEvent::Cycles), Some(42), "fed value wins");
    }

    #[test]
    fn unfed_events_report_zero_not_absent() {
        let mut sw = SoftwareCounters::new();
        sw.start(0, 0);
        let r = sw.stop(1, 1);
        assert_eq!(r.get(PmuEvent::DtlbStoreMisses), Some(0));
    }
}
