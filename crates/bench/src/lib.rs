//! Reproduction harness: one module per table/figure of the paper.
//!
//! The `repro` binary drives [`experiments`]; see `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record each function
//! regenerates. Beside them: [`live`] is the one driver every experiment
//! on the live runtime runs its client threads through, [`replay`] moves
//! workload streams onto real heaps, [`hw`] bridges simulator counters to
//! the host PMU,
//! [`executor`] is the dependency-free future executor of `repro conns`,
//! and [`report`] aligns tables.

#![warn(missing_docs)]

pub mod executor;
pub mod experiments;
pub mod hw;
pub mod live;
pub mod replay;
pub mod report;

/// Scale factor applied to workload sizes (1 = quick defaults; the paper
/// runs are statistically stable from ~4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub u32);

impl Scale {
    /// Multiplies a base count.
    pub fn apply(self, base: u32) -> u32 {
        base.saturating_mul(self.0.max(1))
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1)
    }
}
