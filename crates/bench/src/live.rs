//! The live-tier driver: the one place an experiment's client threads
//! run against a live [`Ngm`] tier.
//!
//! Every live experiment has the same shape — build a tier, churn it
//! from N client threads (perhaps recording or scraping meanwhile), shut it
//! down, check the books. The tier's configuration and the load are the
//! experiment's own; [`drive`] is the client loop, [`finish`] the
//! shutdown, and [`render_pmu`] the `--hw` section printed under
//! whatever the run's report prints. Because a `--hw` table comes out of
//! the same [`finish`] as the books, it is by construction a measurement
//! of the run it is printed under.
//!
//! Every live wall-clock number the harness prints is [`paired`] against
//! `System`: a single unpaired pass on a shared host does not reproduce.

use std::alloc::Layout;
use std::fmt;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ngm_core::{Ngm, NgmHandle, NgmShutdown};
use ngm_pmu::PmuReport;

use crate::report::median;

/// What the client threads of one [`drive`] do.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Client threads.
    pub clients: usize,
    /// Allocations each client makes.
    pub per_thread: usize,
    /// Blocks a client holds before every further allocation is paired
    /// with the free of a pseudo-randomly chosen held block; 0 is a
    /// ping-pong (each block is freed before the next is requested).
    pub live_cap: usize,
    /// Request size, in bytes, of client `t`'s `i`-th allocation:
    /// `size(i, t)`.
    pub size: fn(usize, usize) -> usize,
}

/// Sizes sweeping eight consecutive small classes, offset per client, so
/// the class → shard map spreads every client's traffic over the whole
/// tier.
pub fn class_sweep(i: usize, t: usize) -> usize {
    16 * (1 + (i + t) % 8)
}

/// Sizes scattered over 16..1040 bytes: every small class below 1 KiB,
/// in no particular order.
pub fn scattered(i: usize, t: usize) -> usize {
    16 + (i * 37 + t * 101) % 1024
}

/// The `alloc` of a [`drive`] whose tier never refuses: client threads
/// panic on an allocation failure, and [`drive`] propagates the panic.
pub fn must_alloc(_client: usize, h: &mut NgmHandle, layout: Layout) -> Option<NonNull<u8>> {
    Some(h.alloc(layout).expect("alloc"))
}

/// Runs `load` against `ngm` and returns the seconds from the first
/// client's spawn to the last client's final free.
///
/// Each client opens its own handle and makes its allocations through
/// `alloc(client, handle, layout)` — [`must_alloc`], or a closure that
/// times the call or absorbs a failure (`None` means no block came
/// back; the client moves on). `alloc` is called exactly once per
/// allocation and is monomorphised into the client loop. Blocks still
/// held when a client's allocations are done are freed before it
/// returns, so a tier that balanced going in balances coming out.
///
/// Meanwhile the calling thread runs `while_running` every `interval`:
/// at least once, and not again once every client has finished.
///
/// # Panics
///
/// Panics if a client thread panicked.
pub fn drive(
    ngm: &Ngm,
    load: Load,
    alloc: impl Fn(usize, &mut NgmHandle, Layout) -> Option<NonNull<u8>> + Sync,
    interval: Duration,
    mut while_running: impl FnMut(),
) -> f64 {
    let client = |t: usize| {
        let mut h = ngm.handle();
        let mut live: Vec<(NonNull<u8>, Layout)> = Vec::with_capacity(load.live_cap + 1);
        for i in 0..load.per_thread {
            let l = Layout::from_size_align((load.size)(i, t), 8).expect("valid layout");
            if let Some(p) = alloc(t, &mut h, l) {
                live.push((p, l));
            }
            if live.len() > load.live_cap {
                let (p, l) = live.swap_remove((i * 31) % live.len());
                // SAFETY: a live block of this tier, freed once.
                unsafe { h.dealloc(p, l) };
            }
        }
        for (p, l) in live {
            // SAFETY: a live block of this tier, freed once.
            unsafe { h.dealloc(p, l) };
        }
        Instant::now()
    };
    let start = Instant::now();
    let end = std::thread::scope(|s| {
        let client = &client;
        let joins: Vec<_> = (0..load.clients)
            .map(|t| s.spawn(move || client(t)))
            .collect();
        loop {
            while_running();
            if joins.iter().all(|j| j.is_finished()) {
                break;
            }
            std::thread::sleep(interval);
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .max()
    });
    end.map_or(0.0, |end| end.duration_since(start).as_secs_f64())
}

/// How often a [`drive`] with nothing to do meanwhile looks for its
/// clients to finish (the returned seconds do not depend on it).
pub const JOIN_POLL: Duration = Duration::from_millis(1);

/// Shuts the tier down and returns its final books — and, in
/// [`NgmShutdown::pmu`], the PMU report of a profiled tier, complete
/// with the service columns that exist only once the loops have exited.
///
/// # Panics
///
/// Panics if an observer or handle still holds the tier.
pub fn finish(ngm: Arc<Ngm>) -> NgmShutdown {
    Arc::into_inner(ngm)
        .expect("every client joined and every observer stopped")
        .shutdown()
}

/// What `--hw` adds under the table a run produced: `heading`, then the
/// service-shard and client columns of [`NgmShutdown::pmu`]. A run that
/// was not profiled has no report and adds nothing.
pub fn render_pmu(heading: &str, pmu: Option<&PmuReport>) -> String {
    pmu.map_or_else(String::new, |p| format!("\n{heading}\n\n{}", p.render()))
}

/// Rounds of a [`paired`] comparison.
pub const PAIRS: usize = 10;

/// A program timed against `System` by [`paired`]: the median and range
/// of the per-round `program / System` ratios (below 1 is faster than
/// `System`).
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// Median of the per-round ratios.
    pub median: f64,
    /// Smallest per-round ratio.
    pub min: f64,
    /// Largest per-round ratio.
    pub max: f64,
    /// Rounds the ratios come from.
    pub pairs: usize,
}

impl fmt::Display for Paired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}× System ({} pairs, {:.2}–{:.2})",
            self.median, self.pairs, self.min, self.max
        )
    }
}

/// Times `program` against `reference` (one pass of `System`): [`PAIRS`]
/// rounds of one pass each, the side that goes first alternating from
/// round to round (the reference first in round 0), and the median of
/// the per-round `program / reference` ratios — the benchmark's
/// `slowdown_vs_system` rule. Each closure runs one pass and returns its
/// seconds; a pass that checks its own result panics on a wrong one.
pub fn paired(mut reference: impl FnMut() -> f64, mut program: impl FnMut() -> f64) -> Paired {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|round| {
            if round % 2 == 0 {
                let r = reference();
                program() / r
            } else {
                let p = program();
                p / reference()
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    Paired {
        min: ratios[0],
        max: ratios[PAIRS - 1],
        median: median(ratios),
        pairs: PAIRS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn two_shards() -> Arc<Ngm> {
        Arc::new(
            ngm_core::NgmConfig::new()
                .with_shards(2)
                .with_placement(ngm_core::CorePlacement::Unpinned)
                .build()
                .expect("valid config"),
        )
    }

    #[test]
    fn paired_alternates_sides_and_takes_the_median_of_ratios() {
        // Round k's seconds on each side. The per-round ratios sort to
        // 0.8, 1, 1, 1, 1, 1.5, 2, 2, 2, 2.5 (median 1.5); the ratio of
        // the sides' medians would be 8 / 10 = 0.8.
        let mut reference = [1.0, 1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0, 10.0].into_iter();
        let mut program = [1.5, 2.0, 2.0, 2.0, 2.5, 10.0, 10.0, 10.0, 10.0, 8.0].into_iter();
        let order = RefCell::new(String::new());
        let pass = |side, script: &mut std::array::IntoIter<f64, PAIRS>| {
            order.borrow_mut().push(side);
            script.next().expect("one pass a side per round")
        };
        let got = paired(|| pass('r', &mut reference), || pass('p', &mut program));
        assert_eq!(order.into_inner(), "rppr".repeat(PAIRS / 2));
        assert_eq!((got.median, got.min, got.max), (1.5, 0.8, 2.5));
        assert_eq!(got.pairs, PAIRS);
        assert_eq!(got.to_string(), "1.50× System (10 pairs, 0.80–2.50)");
    }

    #[test]
    fn ping_pong_and_churn_both_end_with_exact_books() {
        for live_cap in [0, 64] {
            let ngm = two_shards();
            let load = Load {
                clients: 3,
                per_thread: 2_000,
                live_cap,
                size: class_sweep,
            };
            let mut ran = 0u32;
            let secs = drive(&ngm, load, must_alloc, JOIN_POLL, || ran += 1);
            assert!(secs > 0.0);
            assert!(ran >= 1, "while_running runs at least once per stage");
            let down = finish(ngm);
            assert!(down.clean() && down.balanced(), "cap {live_cap}: {down:?}");
            assert_eq!(down.service.app_allocs(), 3 * 2_000, "cap {live_cap}");
            assert_eq!(down.heap.live_blocks, 0, "cap {live_cap}");
            assert!(down.pmu.is_none(), "not profiled");
        }
    }

    #[test]
    fn an_empty_stage_is_still_observed_once() {
        // Clients with nothing to do exit at once; a scraping
        // caller must still get its one look at the stage.
        let ngm = two_shards();
        let idle = Load {
            clients: 2,
            per_thread: 0,
            live_cap: 0,
            size: class_sweep,
        };
        let mut ran = 0u32;
        drive(&ngm, idle, must_alloc, JOIN_POLL, || ran += 1);
        assert!(ran >= 1);
        assert!(finish(ngm).balanced());
    }

    #[test]
    fn alloc_hook_sees_every_allocation_exactly_once() {
        let ngm = two_shards();
        let load = Load {
            clients: 4,
            per_thread: 500,
            live_cap: 8,
            size: scattered,
        };
        let seen: Vec<AtomicU64> = (0..load.clients).map(|_| AtomicU64::new(0)).collect();
        // Every third allocation "fails": the client must carry on
        // without a block and still leave the books exact.
        let flaky = |t: usize, h: &mut NgmHandle, l: Layout| {
            let n = seen[t].fetch_add(1, Ordering::Relaxed);
            if n % 3 == 2 {
                None
            } else {
                must_alloc(t, h, l)
            }
        };
        drive(&ngm, load, flaky, JOIN_POLL, || ());
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 500, "one call per allocation");
        }
        let down = finish(ngm);
        assert!(down.clean() && down.balanced(), "{down:?}");
        let served = 4 * (500 - 500 / 3);
        assert_eq!(down.service.app_allocs(), served as u64);
    }

    #[test]
    fn finish_returns_a_profiled_tiers_complete_report() {
        let ngm = Arc::new(
            ngm_core::NgmConfig::new()
                .with_shards(2)
                .with_profile(true)
                .with_placement(ngm_core::CorePlacement::Unpinned)
                .build()
                .expect("valid config"),
        );
        let load = Load {
            clients: 2,
            per_thread: 200,
            live_cap: 0,
            size: class_sweep,
        };
        drive(&ngm, load, must_alloc, JOIN_POLL, || ());
        let down = finish(ngm);
        let text = render_pmu("### PMU", down.pmu.as_ref());
        assert!(text.starts_with("\n### PMU\n\n"), "{text}");
        for col in ["shard0/", "shard1/", "clients(2)/"] {
            assert!(text.contains(col), "{col} missing:\n{text}");
        }
        assert_eq!(render_pmu("### PMU", None), "", "unprofiled: no section");
    }
}
