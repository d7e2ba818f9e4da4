//! Converts drained telemetry traces into replayable workload streams.
//!
//! A [`TraceRing`](ngm_telemetry::trace::TraceRing) records what the
//! runtime actually did — `Alloc(size, rtt)` and `Free(size, _)` events
//! per thread — but without object identities: the trace deliberately
//! carries no addresses. This module reconstructs identities so a trace
//! captured from one run becomes an [`Event`] stream that
//! [`replay_heap`](crate::replay::replay_heap) (or any workload consumer)
//! can replay against another allocator.
//!
//! Identity reconstruction is per-thread FIFO within a size: the n-th
//! `Free` of size `s` on thread `t` is matched to the n-th outstanding
//! `Alloc` of size `s` on thread `t`. That is exact for the runtime's own
//! handles (a handle is single-threaded and the service serves it in
//! order) and a standard approximation for anything fancier. Frees whose
//! allocation fell outside the capture window (ring overflow, tracing
//! enabled mid-run) are dropped and counted, and blocks still live at the
//! end of the trace get trailing frees appended — the output stream
//! always terminates with an empty heap, which replayers assert.

use std::collections::{HashMap, VecDeque};

use ngm_telemetry::trace::{TraceEvent, TraceEventKind};
use ngm_workloads::Event;

/// Result of a trace conversion.
#[derive(Debug, Clone, Default)]
pub struct TraceConversion {
    /// The replayable stream: one `Malloc` per traced `Alloc`, one `Free`
    /// per matched traced `Free`, plus trailing frees for blocks the
    /// trace left live.
    pub events: Vec<Event>,
    /// Traced frees with no outstanding allocation to match (allocation
    /// predates the capture window or was dropped on ring overflow).
    pub unmatched_frees: u64,
    /// Frees appended at the end for blocks the trace left live.
    pub trailing_frees: u64,
}

/// Converts a drained trace (sorted or not) into a replayable stream.
///
/// Non-allocation events (`Post`, `Refill`, `WaitTransition`, `Span`,
/// `Scale`, `Failure`) are skipped: they describe the transport, the
/// request lifecycle, and the tier's shape and health, not the heap.
pub fn convert(trace: &[TraceEvent]) -> TraceConversion {
    let mut sorted: Vec<&TraceEvent> = trace.iter().collect();
    sorted.sort_by_key(|e| e.tsc);

    let mut out = TraceConversion::default();
    // (thread, size) -> outstanding object ids, oldest first.
    let mut outstanding: HashMap<(u32, u64), VecDeque<u64>> = HashMap::new();
    // Alloc order of still-live ids, for deterministic trailing frees.
    let mut live: Vec<(u32, u64)> = Vec::new();
    let mut freed: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut next_id = 0u64;

    for e in &sorted {
        let thread = e.thread as u8;
        let size = e.a.min(u64::from(u32::MAX)) as u32;
        match e.kind {
            TraceEventKind::Alloc => {
                let id = next_id;
                next_id += 1;
                outstanding
                    .entry((e.thread, e.a))
                    .or_default()
                    .push_back(id);
                live.push((e.thread, id));
                out.events.push(Event::Malloc { thread, id, size });
            }
            TraceEventKind::Free => {
                match outstanding
                    .get_mut(&(e.thread, e.a))
                    .and_then(VecDeque::pop_front)
                {
                    Some(id) => {
                        freed.insert(id);
                        out.events.push(Event::Free { thread, id });
                    }
                    None => out.unmatched_frees += 1,
                }
            }
            TraceEventKind::Post
            | TraceEventKind::Refill
            | TraceEventKind::WaitTransition
            | TraceEventKind::Span
            | TraceEventKind::Failure => {}
        }
    }

    for (thread, id) in live {
        if !freed.contains(&id) {
            out.trailing_frees += 1;
            out.events.push(Event::Free {
                thread: thread as u8,
                id,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay_heap;
    use ngm_core::NgmConfig;
    use ngm_heap::SegregatedHeap;

    fn ev(tsc: u64, thread: u32, kind: TraceEventKind, a: u64) -> TraceEvent {
        TraceEvent {
            tsc,
            thread,
            kind,
            a,
            b: 0,
        }
    }

    #[test]
    fn runtime_trace_replays_against_a_fresh_heap() {
        let ngm = NgmConfig::new()
            .with_trace_capacity(4096)
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        let mut blocks = Vec::new();
        for i in 0..64usize {
            let l = std::alloc::Layout::from_size_align(16 + (i * 24) % 512, 8).unwrap();
            blocks.push((h.alloc(l).unwrap(), l));
        }
        for (p, l) in blocks {
            // SAFETY: blocks from this handle's allocator.
            unsafe { h.dealloc(p, l) };
        }
        let drain = ngm.telemetry().drain_trace();
        let conv = convert(&drain.events);
        assert_eq!(conv.unmatched_frees, 0);
        assert_eq!(conv.trailing_frees, 0);

        let mut heap = SegregatedHeap::new(7);
        let outcome = replay_heap(&mut heap, conv.events.iter().copied());
        assert_eq!(outcome.mallocs, 64);
        assert_eq!(outcome.frees, 64);
    }

    #[test]
    fn unmatched_frees_are_counted_not_replayed() {
        let trace = [
            ev(1, 0, TraceEventKind::Free, 64), // no matching alloc
            ev(2, 0, TraceEventKind::Alloc, 32),
            ev(3, 0, TraceEventKind::Free, 32),
        ];
        let conv = convert(&trace);
        assert_eq!(conv.unmatched_frees, 1);
        assert_eq!(conv.events.len(), 2);
    }

    #[test]
    fn leftover_live_blocks_get_trailing_frees() {
        let trace = [
            ev(1, 3, TraceEventKind::Alloc, 128),
            ev(2, 3, TraceEventKind::Alloc, 128),
            ev(3, 3, TraceEventKind::Free, 128),
        ];
        let conv = convert(&trace);
        assert_eq!(conv.trailing_frees, 1);
        let frees = conv
            .events
            .iter()
            .filter(|e| matches!(e, Event::Free { .. }))
            .count();
        assert_eq!(frees, 2, "matched free plus trailing free");
        let mut heap = SegregatedHeap::new(8);
        let outcome = replay_heap(&mut heap, conv.events.iter().copied());
        assert_eq!(outcome.frees, 2);
    }

    #[test]
    fn fifo_matching_is_per_thread_and_size() {
        let trace = [
            ev(1, 0, TraceEventKind::Alloc, 64),
            ev(2, 1, TraceEventKind::Alloc, 64),
            ev(3, 1, TraceEventKind::Free, 64), // matches thread 1's alloc
            ev(4, 0, TraceEventKind::Free, 64), // matches thread 0's alloc
        ];
        let conv = convert(&trace);
        assert_eq!(conv.unmatched_frees, 0);
        assert_eq!(conv.trailing_frees, 0);
        // Frees carry the allocating thread's id assignment.
        let ids: Vec<(u8, u64)> = conv
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Free { thread, id } => Some((*thread, *id)),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![(1, 1), (0, 0)]);
    }

    #[test]
    fn transport_events_are_skipped() {
        let trace = [
            ev(1, 0, TraceEventKind::Post, 5),
            ev(2, 0, TraceEventKind::Refill, 3),
            ev(3, 0, TraceEventKind::WaitTransition, 1),
            ev(4, 0, TraceEventKind::Span, 0xabc),
        ];
        let conv = convert(&trace);
        assert!(conv.events.is_empty());
        assert_eq!(conv.unmatched_frees, 0);
    }
}
