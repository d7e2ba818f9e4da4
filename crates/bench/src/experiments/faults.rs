//! Fault-injection sweep: is the request path hang-proof?
//!
//! The service tier's liveness claim (deadlines + reroute + inline
//! fallback, see `DESIGN.md` "Liveness & degradation") is only credible
//! under injected faults. This experiment sweeps fault rate × shard
//! count on the live [`ngm_core::Ngm`] tier with the deterministic
//! fault hooks armed (`--features faultinject`) and the per-call
//! handshake pinned (`with_batch(1, 1)`, so a response is an
//! allocation and the drop rate is per allocation): every Nth response on
//! every shard is dropped on the floor, so clients must detect the loss
//! by deadline, retract the request, and reroute — or, when every shard
//! misbehaves at once, degrade to the bounded inline fallback.
//!
//! Reported per cell:
//!
//! * **recovered** — deadline expiries that the tier absorbed by
//!   rerouting (the allocation still succeeded on another shard);
//! * **degraded** — allocations served inline by the fallback heap
//!   because every shard was exhausted;
//! * **failed** — allocations the client actually saw fail. The
//!   acceptance bar is zero: a fault rate is *handled* only if no
//!   malloc call errors and none hangs;
//! * **p99** — client-observed allocation latency, which bounds the
//!   worst-case stall a faulty tier can impose on the application.
//!
//! The whole sweep asserts the shutdown books balance (`allocs ==
//! frees` including fallback traffic): fault handling must never leak.

#[cfg(feature = "faultinject")]
pub use imp::{run, FaultCell, FaultReport, DROP_RATES, SHARD_COUNTS};

/// Without the `faultinject` feature the sweep cannot arm any fault
/// hooks; print how to enable it instead of silently measuring nothing.
#[cfg(not(feature = "faultinject"))]
pub fn run(_scale: crate::Scale) -> String {
    "## Fault-injection sweep\n\n\
     (skipped: rebuild with `--features faultinject` to arm the \
     deterministic fault hooks, e.g.\n\
     `cargo run --release --features faultinject --bin repro -- faults`)\n"
        .to_string()
}

#[cfg(feature = "faultinject")]
mod imp {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    use crate::live::{self, Load};
    use crate::Scale;

    /// Shard counts crossed by the sweep.
    pub const SHARD_COUNTS: [usize; 2] = [2, 4];
    /// Drop-every-Nth-response fault rates (0 = fault-free baseline).
    pub const DROP_RATES: [u64; 4] = [0, 1000, 100, 10];
    /// Client threads hammering the tier in every cell.
    const CLIENTS: usize = 4;
    /// Per-request deadline: small enough that a dropped response costs
    /// milliseconds, large enough that a healthy shard never expires it.
    const DEADLINE: Duration = Duration::from_millis(5);

    /// One sweep cell: a (shards, drop rate) pair under client load.
    #[derive(Debug, Clone)]
    pub struct FaultCell {
        /// Service shards in the tier.
        pub shards: usize,
        /// Every Nth response dropped on every shard (0 = none).
        pub drop_every: u64,
        /// Total allocations the clients completed.
        pub allocs: u64,
        /// Deadline expiries absorbed by rerouting.
        pub recovered: u64,
        /// Allocations served inline by the fallback heap.
        pub degraded: u64,
        /// Allocations the clients saw fail (must be zero).
        pub failed: u64,
        /// Bounded retries paid against full rings.
        pub retries: u64,
        /// Client-observed p99 allocation latency, microseconds.
        pub p99_us: f64,
        /// Whether shutdown accounting balanced, fallback included.
        pub balanced: bool,
    }

    /// The full sweep.
    #[derive(Debug, Clone)]
    pub struct FaultReport {
        /// One row per (shards, drop rate) pair, row-major by shards.
        pub cells: Vec<FaultCell>,
    }

    /// Runs one cell: `CLIENTS` threads churn small allocations against
    /// a `shards`-wide tier whose every shard drops every Nth response.
    fn run_cell(shards: usize, drop_every: u64, scale: Scale) -> FaultCell {
        let ngm = ngm_core::NgmConfig::new()
            .with_shards(shards)
            .with_batch(1, 1)
            .with_placement(ngm_core::CorePlacement::Unpinned)
            .with_deadline(Some(DEADLINE))
            .build()
            .expect("valid config");
        for s in 0..shards {
            ngm.fault_state(s).set_drop_every(drop_every);
        }
        let load = Load {
            clients: CLIENTS,
            per_thread: 1_000 * scale.0.max(1) as usize,
            live_cap: 32,
            size: live::class_sweep,
        };
        // Each client's latencies behind its own (uncontended) lock.
        let lat: Vec<Mutex<Vec<u64>>> = (0..CLIENTS)
            .map(|_| Mutex::new(Vec::with_capacity(load.per_thread)))
            .collect();
        let failed = AtomicU64::new(0);
        let timed_alloc = |t: usize, h: &mut ngm_core::NgmHandle, l| {
            let t0 = Instant::now();
            match h.alloc(l) {
                Ok(p) => {
                    let ns = t0.elapsed().as_nanos() as u64;
                    lat[t].lock().expect("latency log poisoned").push(ns);
                    Some(p)
                }
                Err(_) => {
                    failed.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        };
        live::drive(&ngm, load, timed_alloc, live::JOIN_POLL, || ());
        // Disarm before shutdown so the stop handshake itself cannot be
        // dropped — the sweep measures the request path, not shutdown.
        for s in 0..shards {
            ngm.fault_state(s).set_drop_every(0);
        }
        let down = ngm.shutdown();
        let mut lat: Vec<u64> = lat
            .into_iter()
            .flat_map(|l| l.into_inner().expect("latency log poisoned"))
            .collect();
        lat.sort_unstable();
        let p99 = if lat.is_empty() {
            0.0
        } else {
            lat[(lat.len() - 1).min(lat.len() * 99 / 100)] as f64 / 1e3
        };
        FaultCell {
            shards,
            drop_every,
            allocs: lat.len() as u64,
            recovered: down.runtime.deadlines,
            degraded: down.service.fallback_allocs,
            failed: failed.into_inner(),
            retries: down.runtime.retry_total,
            p99_us: p99,
            balanced: down.clean()
                && down.service.allocs == down.service.frees
                && down.heap.live_blocks == 0,
        }
    }

    /// Runs the full sweep.
    pub fn run(scale: Scale) -> String {
        let mut cells = Vec::new();
        for &shards in &SHARD_COUNTS {
            for &drop_every in &DROP_RATES {
                cells.push(run_cell(shards, drop_every, scale));
            }
        }
        FaultReport { cells }.render()
    }

    impl FaultReport {
        /// Renders the sweep table plus the acceptance verdict.
        pub fn render(&self) -> String {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "## Fault-injection sweep — drop every Nth response, all shards, with_batch(1, 1)\n"
            );
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>8} {:>10} {:>9} {:>7} {:>8} {:>10}  balanced",
                "shards",
                "drop 1/N",
                "allocs",
                "recovered",
                "degraded",
                "failed",
                "retries",
                "p99 us"
            );
            let mut ok = true;
            for c in &self.cells {
                ok &= c.failed == 0 && c.balanced;
                let rate = if c.drop_every == 0 {
                    "none".to_string()
                } else {
                    format!("1/{}", c.drop_every)
                };
                let _ = writeln!(
                    out,
                    "{:<8} {:>10} {:>8} {:>10} {:>9} {:>7} {:>8} {:>10.1}  {}",
                    c.shards,
                    rate,
                    c.allocs,
                    c.recovered,
                    c.degraded,
                    c.failed,
                    c.retries,
                    c.p99_us,
                    c.balanced
                );
            }
            let _ = writeln!(
                out,
                "\nverdict: {}",
                if ok {
                    "PASS — zero failed allocations, books balanced at every fault rate"
                } else {
                    "FAIL — a cell failed allocations or leaked"
                }
            );
            out
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn faultfree_cell_is_clean() {
            let c = run_cell(2, 0, Scale(1));
            assert_eq!(c.failed, 0);
            assert_eq!(
                c.allocs + c.failed,
                (CLIENTS * 1_000) as u64,
                "the per-alloc hook saw every allocation exactly once"
            );
            assert_eq!(c.degraded, 0, "no faults, no degradation");
            assert!(c.balanced, "{c:?}");
        }

        #[test]
        fn heavy_drop_cell_recovers_without_failures() {
            let c = run_cell(2, 10, Scale(1));
            assert_eq!(c.failed, 0, "hang-proof path never errors: {c:?}");
            assert!(c.recovered > 0, "drops were detected by deadline: {c:?}");
            assert!(c.balanced, "{c:?}");
        }
    }
}
