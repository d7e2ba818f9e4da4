//! Rolling-window aggregation for shard-heat reporting.
//!
//! A [`HeatWindow`] holds the last few [`HeatFrame`]s sampled from one
//! shard. Counters and phase histograms in a frame are *cumulative*
//! (monotone since shard start); the window's aggregate is the newest
//! frame minus the oldest — counter deltas by subtraction, histogram
//! windows via [`HistogramSnapshot::diff`] — so percentiles and rates
//! describe *recent* behavior, not the lifetime average. This is the
//! signal shape the rebalance policy consumes: a shard that was hot an
//! hour ago but idle now must read cold.

use std::collections::VecDeque;

use crate::hist::HistogramSnapshot;

/// One cumulative sample of a shard's state.
#[derive(Debug, Clone, Default)]
pub struct HeatFrame {
    /// Sample timestamp ([`crate::clock::cycles_now`]).
    pub tsc: u64,
    /// Free-ring occupancy at sample time (instantaneous).
    pub ring_occupancy: u64,
    /// Synchronous calls served, cumulative.
    pub calls: u64,
    /// Deadline expiries, cumulative.
    pub deadlines: u64,
    /// Full-ring post retries, cumulative.
    pub retries: u64,
    /// Inline-fallback allocations, cumulative (tier-wide counter
    /// sampled per shard report).
    pub fallbacks: u64,
    /// Cumulative phase histograms, caller-defined order (the runtime
    /// uses queue/claim/serve/publish/observe).
    pub phases: Vec<HistogramSnapshot>,
    /// Per-size-class refill demand, cumulative (blocks handed out per
    /// class since shard start, as last published by the shard's idle
    /// hook).
    pub demand: Vec<u64>,
}

/// The windowed aggregate: newest frame minus the window's baseline.
/// The default is the all-zero aggregate of a window nothing has been
/// pushed into yet.
#[derive(Debug, Clone, Default)]
pub struct HeatDelta {
    /// Cycles spanned by the window (0 when only one frame exists).
    pub span_tsc: u64,
    /// Calls within the window.
    pub calls: u64,
    /// Deadlines within the window.
    pub deadlines: u64,
    /// Post retries within the window.
    pub retries: u64,
    /// Fallback allocations within the window.
    pub fallbacks: u64,
    /// Latest ring occupancy (instantaneous, not differenced).
    pub ring_occupancy: u64,
    /// Windowed phase distributions, same order as the frames'.
    pub phases: Vec<HistogramSnapshot>,
    /// Per-size-class refill demand within the window.
    pub demand: Vec<u64>,
}

impl HeatDelta {
    /// Deadlines per call in the window (0 when no calls).
    #[must_use]
    pub fn deadline_rate(&self) -> f64 {
        rate(self.deadlines, self.calls)
    }

    /// Post retries per call in the window (0 when no calls).
    #[must_use]
    pub fn retry_rate(&self) -> f64 {
        rate(self.retries, self.calls)
    }

    /// Fallback allocations per call in the window (0 when no calls).
    #[must_use]
    pub fn fallback_rate(&self) -> f64 {
        rate(self.fallbacks, self.calls)
    }
}

fn rate(num: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// A bounded rolling window of [`HeatFrame`]s (oldest dropped on
/// overflow).
#[derive(Debug)]
pub struct HeatWindow {
    frames: VecDeque<HeatFrame>,
    capacity: usize,
}

/// Window depth: with one frame per tier tick this covers the last 8
/// tick intervals.
pub const DEFAULT_HEAT_FRAMES: usize = 8;

impl Default for HeatWindow {
    fn default() -> Self {
        Self::new(DEFAULT_HEAT_FRAMES)
    }
}

impl HeatWindow {
    /// A window retaining at most `capacity` frames (minimum 2: a
    /// window needs a baseline and a head).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        HeatWindow {
            frames: VecDeque::new(),
            capacity: capacity.max(2),
        }
    }

    /// Appends a sample, dropping the oldest beyond capacity.
    pub fn push(&mut self, frame: HeatFrame) {
        if self.frames.len() == self.capacity {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }

    /// Frames currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Maximum retained frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained frames, oldest first. This is the raw time series an
    /// observability endpoint exposes; the windowed aggregate is
    /// derived, the frames are the evidence.
    pub fn frames(&self) -> impl Iterator<Item = &HeatFrame> {
        self.frames.iter()
    }

    /// The windowed aggregate: newest frame minus the oldest retained
    /// frame. With a single frame the baseline is zero — the aggregate
    /// is then "everything since shard start", which is the honest
    /// answer for a first report. `None` before any frame is pushed.
    #[must_use]
    pub fn windowed(&self) -> Option<HeatDelta> {
        let newest = self.frames.back()?;
        let zero = HeatFrame::default();
        let oldest = if self.frames.len() > 1 {
            self.frames.front().expect("non-empty")
        } else {
            &zero
        };
        let phases = newest
            .phases
            .iter()
            .enumerate()
            .map(|(i, now)| match oldest.phases.get(i) {
                Some(then) => now.diff(then),
                None => now.clone(),
            })
            .collect();
        let demand = newest
            .demand
            .iter()
            .enumerate()
            .map(|(i, now)| now.saturating_sub(oldest.demand.get(i).copied().unwrap_or(0)))
            .collect();
        Some(HeatDelta {
            span_tsc: newest.tsc.saturating_sub(oldest.tsc),
            calls: newest.calls.saturating_sub(oldest.calls),
            deadlines: newest.deadlines.saturating_sub(oldest.deadlines),
            retries: newest.retries.saturating_sub(oldest.retries),
            fallbacks: newest.fallbacks.saturating_sub(oldest.fallbacks),
            ring_occupancy: newest.ring_occupancy,
            phases,
            demand,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn frame(tsc: u64, calls: u64, deadlines: u64) -> HeatFrame {
        HeatFrame {
            tsc,
            calls,
            deadlines,
            ..HeatFrame::default()
        }
    }

    #[test]
    fn empty_window_has_no_aggregate() {
        assert!(HeatWindow::default().windowed().is_none());
    }

    #[test]
    fn single_frame_reads_cumulative() {
        let mut w = HeatWindow::new(4);
        w.push(frame(100, 10, 2));
        let d = w.windowed().expect("one frame suffices");
        assert_eq!(d.calls, 10);
        assert_eq!(d.deadlines, 2);
        assert_eq!(d.deadline_rate(), 0.2);
    }

    #[test]
    fn window_subtracts_the_baseline() {
        // Refill demand rides along: class 0 refills only before the
        // second frame, class 1 in every interval.
        let with_demand = |f: HeatFrame, demand: [u64; 2]| HeatFrame {
            demand: demand.to_vec(),
            ..f
        };
        let mut w = HeatWindow::new(3);
        w.push(with_demand(frame(100, 10, 2), [40, 5]));
        w.push(with_demand(frame(200, 50, 2), [64, 9]));
        w.push(with_demand(frame(300, 100, 12), [64, 12]));
        let d = w.windowed().expect("frames pushed");
        assert_eq!(d.span_tsc, 200);
        assert_eq!(d.calls, 90, "newest minus oldest");
        assert_eq!(d.deadlines, 10);
        assert_eq!(d.demand, [24, 7], "demand is differenced like calls");
        // A fourth frame evicts the first: the baseline slides.
        w.push(with_demand(frame(400, 120, 12), [64, 13]));
        let d = w.windowed().expect("frames pushed");
        assert_eq!(d.calls, 70, "window slid past the first frame");
        assert_eq!(
            d.demand,
            [0, 4],
            "a class refilled only before the window slid reads 0"
        );
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn phase_percentiles_are_windowed() {
        let h = LatencyHistogram::new();
        for v in [10u64, 10, 10] {
            h.record(v);
        }
        let old = HeatFrame {
            tsc: 1,
            phases: vec![h.snapshot()],
            ..HeatFrame::default()
        };
        for v in [9_000u64, 9_000, 9_000] {
            h.record(v);
        }
        let new = HeatFrame {
            tsc: 2,
            phases: vec![h.snapshot()],
            ..HeatFrame::default()
        };
        let mut w = HeatWindow::new(2);
        w.push(old);
        w.push(new);
        let d = w.windowed().expect("frames pushed");
        assert_eq!(d.phases[0].count(), 3, "only the window's samples");
        assert!(
            d.phases[0].p50() >= 9_000,
            "old cheap samples must not drag the windowed p50 down: {}",
            d.phases[0].p50()
        );
    }

    #[test]
    fn rates_handle_zero_calls() {
        let mut w = HeatWindow::new(2);
        w.push(frame(1, 0, 0));
        let d = w.windowed().expect("frames pushed");
        assert_eq!(d.deadline_rate(), 0.0);
        assert_eq!(d.retry_rate(), 0.0);
    }
}
