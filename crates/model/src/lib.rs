//! The paper's §4.1 analytical model: when does offloading the allocator
//! pay for itself?
//!
//! The argument: offloading adds inter-core communication — atomic
//! operations "at the beginning and end of each malloc and free function
//! call", ~67 cycles each — and wins back LLC/TLB misses whose average
//! penalty the paper estimates at 214 cycles (comparing Mimalloc to
//! Glibc on `xalancbmk`). With `xalancbmk`'s 138,401,260 mallocs and
//! 141,394,145 frees, the added cost is ≈75 billion cycles, so
//! NextGen-Malloc must save at least
//! `4 × 67 / 214 ≈ 1.25` misses per malloc/free (plus the user code that
//! runs before the next one) to break even — plausible given Mimalloc's
//! 7 loads/stores per malloc and 10 per free.
//!
//! [`BreakEven`] encodes that arithmetic exactly and supports the
//! atomic-latency sweep of ablation D and `repro model41`.

#![warn(missing_docs)]

/// `xalancbmk`'s malloc count from §4.1.
pub const XALANC_MALLOCS: u64 = 138_401_260;

/// `xalancbmk`'s free count from §4.1.
pub const XALANC_FREES: u64 = 141_394_145;

/// The paper's average atomic-RMW latency (Rajaram et al., Sandy Bridge).
pub const ATOMIC_CYCLES: u64 = 67;

/// The paper's worst-case contended atomic latency (Asgharzadeh et al.).
pub const ATOMIC_CYCLES_WORST: u64 = 700;

/// The paper's derived average LLC/TLB miss penalty in cycles.
pub const MISS_PENALTY: f64 = 214.0;

/// Atomics charged per offloaded call: one pair (`malloc_start`,
/// `malloc_done`) touched on each side.
pub const ATOMICS_PER_CALL: u64 = 4;

/// The §4.1 break-even model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakEven {
    /// malloc() calls in the workload.
    pub mallocs: u64,
    /// free() calls in the workload.
    pub frees: u64,
    /// Latency of one atomic RMW, cycles.
    pub atomic_cycles: u64,
    /// Atomic operations added per offloaded call.
    pub atomics_per_call: u64,
    /// Average penalty of one avoided LLC/TLB miss, cycles.
    pub miss_penalty: f64,
}

impl Default for BreakEven {
    /// The exact §4.1 configuration.
    fn default() -> Self {
        BreakEven {
            mallocs: XALANC_MALLOCS,
            frees: XALANC_FREES,
            atomic_cycles: ATOMIC_CYCLES,
            atomics_per_call: ATOMICS_PER_CALL,
            miss_penalty: MISS_PENALTY,
        }
    }
}

impl BreakEven {
    /// Total malloc + free calls.
    pub fn calls(&self) -> u64 {
        self.mallocs + self.frees
    }

    /// Cycles the offload protocol adds over the whole run (§4.1's "around
    /// 75 billion additional cycles").
    pub fn overhead_cycles(&self) -> u64 {
        self.calls() * self.atomics_per_call * self.atomic_cycles
    }

    /// Misses that must be saved per call (and the user code up to the
    /// next call) to amortize the overhead — §4.1's "at least 1.25".
    pub fn required_miss_reduction(&self) -> f64 {
        (self.atomics_per_call * self.atomic_cycles) as f64 / self.miss_penalty
    }

    /// Net cycles saved for a given measured miss reduction per call.
    /// Positive means offloading wins.
    pub fn net_savings(&self, misses_saved_per_call: f64) -> f64 {
        let saved = misses_saved_per_call * self.miss_penalty * self.calls() as f64;
        saved - self.overhead_cycles() as f64
    }

    /// Speedup over a baseline of `baseline_cycles` for a given miss
    /// reduction per call (>1 means faster).
    pub fn speedup(&self, baseline_cycles: f64, misses_saved_per_call: f64) -> f64 {
        baseline_cycles / (baseline_cycles - self.net_savings(misses_saved_per_call))
    }

    /// Sweeps atomic latency over `range`, returning
    /// `(latency, net_savings)` pairs for a fixed miss reduction.
    pub fn sweep_atomic_latency(
        &self,
        range: impl Iterator<Item = u64>,
        misses_saved_per_call: f64,
    ) -> Vec<(u64, f64)> {
        range
            .map(|lat| {
                let m = BreakEven {
                    atomic_cycles: lat,
                    ..*self
                };
                (lat, m.net_savings(misses_saved_per_call))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_overhead_is_about_75_billion_cycles() {
        let m = BreakEven::default();
        let overhead = m.overhead_cycles() as f64;
        assert!(
            (74e9..77e9).contains(&overhead),
            "overhead {overhead:.3e} not ≈75e9"
        );
    }

    #[test]
    fn paper_break_even_is_1_25_misses() {
        let m = BreakEven::default();
        let req = m.required_miss_reduction();
        assert!(
            (req - 1.25).abs() < 0.01,
            "required reduction {req} not ≈1.25"
        );
    }

    #[test]
    fn net_savings_sign_flips_at_break_even() {
        let m = BreakEven::default();
        let req = m.required_miss_reduction();
        assert!(m.net_savings(req * 0.99) < 0.0);
        assert!(m.net_savings(req * 1.01) > 0.0);
        assert!(m.net_savings(req).abs() < 1e7);
    }

    #[test]
    fn worst_case_atomics_kill_the_win() {
        let m = BreakEven {
            atomic_cycles: ATOMIC_CYCLES_WORST,
            ..BreakEven::default()
        };
        // 700-cycle atomics need >13 misses saved per call — implausible,
        // which is why the paper stresses reducing sync overhead.
        assert!(m.required_miss_reduction() > 13.0);
        assert!(m.net_savings(1.25) < 0.0);
    }

    #[test]
    fn speedup_of_4_5_percent_is_reachable() {
        // Table 3 reports a 4.51 % improvement. With the paper's cycle
        // count for Mimalloc (6.959e11) the model should find a modest
        // miss reduction that yields that speedup.
        let m = BreakEven::default();
        let baseline = 6.959e11;
        // Solve net = baseline * (1 - 1/1.0451).
        let target_net = baseline * (1.0 - 1.0 / 1.0451);
        let needed =
            (target_net + m.overhead_cycles() as f64) / (m.miss_penalty * m.calls() as f64);
        assert!(
            (1.0..4.0).contains(&needed),
            "needed reduction {needed} should be a small per-call count"
        );
        let s = m.speedup(baseline, needed);
        assert!((s - 1.0451).abs() < 1e-3);
    }

    #[test]
    fn sweeps_are_monotonic() {
        let m = BreakEven::default();
        let sweep = m.sweep_atomic_latency((20..=700).step_by(20), 1.25);
        assert!(sweep.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
