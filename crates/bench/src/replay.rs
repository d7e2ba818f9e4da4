//! Replays workload event streams against the *real* heaps for
//! wall-clock measurements (Table 3's prototype side and the heap
//! microbenches).
//!
//! Only single-threaded streams are replayed here — the multi-threaded
//! real-heap paths are exercised by the integration tests and the
//! `allocator_shootout` example, where thread plumbing does not distort
//! timing.

use std::alloc::Layout;
use std::collections::HashMap;
use std::ptr::NonNull;
use std::time::{Duration, Instant};

use ngm_core::NgmHandle;
use ngm_heap::Heap;
use ngm_workloads::Event;

/// Outcome of a real replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayOutcome {
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
    /// Allocations performed.
    pub mallocs: u64,
    /// Frees performed.
    pub frees: u64,
    /// Bytes touched.
    pub bytes_touched: u64,
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
    let mut out = ReplayOutcome {
        elapsed: Duration::ZERO,
        mallocs: 0,
        frees: 0,
        bytes_touched: 0,
        checksum: 0,
    };
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
                out.bytes_touched += u64::from(len);
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

#[cfg(test)]
mod tests {
    use super::*;
    use ngm_heap::{AggregatedHeap, SegregatedHeap};
    use ngm_workloads::xalanc::{self, XalancParams};

    #[test]
    fn real_replay_checksums_agree_across_heaps() {
        let events = xalanc::collect(&XalancParams::tiny());
        let mut seg = SegregatedHeap::new(1);
        let mut agg = AggregatedHeap::new(2);
        let a = replay_heap(&mut seg, events.iter().copied());
        let b = replay_heap(&mut agg, events.iter().copied());
        assert_eq!(a.mallocs, b.mallocs);
        assert_eq!(a.checksum, b.checksum, "data written must read back equal");
    }

    #[test]
    fn ngm_replay_matches_heap_replay() {
        let events = xalanc::collect(&XalancParams::tiny());
        let mut seg = SegregatedHeap::new(1);
        let direct = replay_heap(&mut seg, events.iter().copied());

        let ngm = ngm_core::Ngm::start();
        let mut h = ngm.handle();
        let off = replay_ngm(&mut h, events.iter().copied());
        drop(h);
        let down = ngm.shutdown();
        assert_eq!(off.checksum, direct.checksum);
        assert_eq!(down.service.app_allocs(), off.mallocs);
        assert_eq!(down.heap.live_blocks, 0, "all frees drained at shutdown");
    }
}
