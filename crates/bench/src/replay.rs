//! Replays workload event streams against the *real* allocators —
//! `System`, a [`Heap`], an [`NgmHandle`] — for wall-clock
//! measurements: Table 3's prototype ratios, `fig2`'s fault counts and
//! the `xml_pipeline` example, each pass timed against a `System` pass
//! by [`crate::live::paired`].
//!
//! Only single-threaded streams are replayed here; the multi-threaded
//! real-heap paths are exercised by the integration tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::ptr::NonNull;
use std::time::{Duration, Instant};

use crate::live::{self, Paired};

use ngm_core::NgmHandle;
use ngm_heap::Heap;
use ngm_workloads::Event;

/// Outcome of a real replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
    /// Allocations performed.
    pub mallocs: u64,
    /// Frees performed.
    pub frees: u64,
    /// Checksum of touched data (defeats dead-code elimination and
    /// doubles as a correctness witness: equal across allocators).
    pub checksum: u64,
}

fn layout_for(size: u32) -> Layout {
    Layout::from_size_align(size.max(1) as usize, 8).expect("valid layout")
}

/// Touches `len` bytes at `p + offset`, returning a checksum.
///
/// # Safety
///
/// The block must be live and at least `offset + len` bytes.
unsafe fn touch(p: NonNull<u8>, offset: u32, len: u32, write: bool, round: u64) -> u64 {
    let mut sum = 0u64;
    let base = p.as_ptr() as usize + offset as usize;
    let mut i = 0u32;
    while i < len {
        let q = (base + i as usize) as *mut u8;
        if write {
            // SAFETY: in-bounds per contract.
            unsafe { q.write((round as u8).wrapping_add(i as u8)) };
        } else {
            // SAFETY: in-bounds per contract.
            sum = sum.wrapping_add(u64::from(unsafe { q.read() }));
        }
        i += 8;
    }
    sum
}

fn compute(amount: u32) {
    // A light stand-in: amount/64 multiply-accumulate iterations. The
    // absolute scale cancels across allocators; it exists so allocator
    // work does not dominate wall time the way it never dominates the
    // paper's workloads.
    let mut acc = 0u64;
    for i in 0..(amount / 64).max(1) {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(u64::from(i));
    }
    std::hint::black_box(acc);
}

/// The one replay loop: drives `events` through `target` with the given
/// allocate and free operations (generic, so each caller's loop is
/// monomorphised around its allocator's calls).
///
/// `free` is only ever handed a block `alloc` returned for this
/// `target`, with the layout it was allocated under, exactly once.
fn replay<T>(
    target: &mut T,
    alloc: impl Fn(&mut T, Layout) -> NonNull<u8>,
    free: impl Fn(&mut T, NonNull<u8>, Layout),
    events: impl Iterator<Item = Event>,
) -> ReplayOutcome {
    let mut live: HashMap<u64, (NonNull<u8>, Layout)> = HashMap::new();
    let mut out = ReplayOutcome::default();
    let start = Instant::now();
    let mut round = 0u64;
    for e in events {
        match e {
            Event::Malloc { id, size, .. } => {
                let l = layout_for(size);
                live.insert(id, (alloc(target, l), l));
                out.mallocs += 1;
            }
            Event::Free { id, .. } => {
                let (p, l) = live.remove(&id).expect("free of dead id");
                free(target, p, l);
                out.frees += 1;
            }
            Event::Touch {
                id,
                offset,
                len,
                write,
                ..
            } => {
                let (p, _l) = live[&id];
                round += 1;
                // SAFETY: generators keep touches in bounds (validated by
                // property tests in ngm-workloads).
                out.checksum = out
                    .checksum
                    .wrapping_add(unsafe { touch(p, offset, len, write, round) });
            }
            Event::Compute { amount, .. } => compute(amount),
        }
    }
    out.elapsed = start.elapsed();
    assert!(
        live.is_empty(),
        "replayed stream leaked {} blocks",
        live.len()
    );
    out
}

/// Replays a single-threaded stream through `System`: the reference every
/// other replay is paired against.
///
/// # Panics
///
/// Panics on malformed streams or allocation failure.
pub fn replay_system(events: impl Iterator<Item = Event>) -> ReplayOutcome {
    // SAFETY: every layout has a non-zero size (`layout_for`).
    let alloc = |_: &mut System, l| NonNull::new(unsafe { System.alloc(l) }).expect("System");
    // SAFETY: `replay` frees each block once, with its own layout.
    replay(
        &mut System,
        alloc,
        |_, p, l| unsafe { System.dealloc(p.as_ptr(), l) },
        events,
    )
}

/// Times `program`, one replay of `events`, against `System`'s replay of
/// them with [`live::paired`]. Every pass must compute what `System`
/// computes, as the benchmark's checksum gate demands.
///
/// # Panics
///
/// Panics if a pass's checksum differs from `System`'s.
pub fn paired_replay(events: &[Event], mut program: impl FnMut() -> ReplayOutcome) -> Paired {
    let system = || replay_system(events.iter().copied());
    let want = system().checksum;
    let secs = |r: ReplayOutcome| {
        assert_eq!(r.checksum, want, "replays must compute identically");
        r.elapsed.as_secs_f64()
    };
    live::paired(|| secs(system()), || secs(program()))
}

/// Replays a single-threaded stream against a [`Heap`].
///
/// # Panics
///
/// Panics on malformed streams or allocation failure.
pub fn replay_heap<H: Heap>(heap: &mut H, events: impl Iterator<Item = Event>) -> ReplayOutcome {
    let alloc = |h: &mut H, l| h.allocate(l).expect("allocation failed in replay");
    // SAFETY: `replay` frees each block once, to the heap that made it.
    replay(heap, alloc, |h, p, l| unsafe { h.deallocate(p, l) }, events)
}

/// Replays a single-threaded stream through a NextGen-Malloc handle
/// (synchronous alloc, asynchronous free — the offloaded prototype).
///
/// # Panics
///
/// Panics on malformed streams or allocation failure.
pub fn replay_ngm(handle: &mut NgmHandle, events: impl Iterator<Item = Event>) -> ReplayOutcome {
    let alloc = |h: &mut NgmHandle, l| h.alloc(l).expect("NGM allocation failed");
    // SAFETY: `replay` frees each block once, through the handle that made it.
    replay(handle, alloc, |h, p, l| unsafe { h.dealloc(p, l) }, events)
}
