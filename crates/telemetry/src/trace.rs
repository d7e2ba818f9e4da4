//! Bounded event-trace rings.
//!
//! Each runtime thread owns a [`TraceRing`]: a fixed-capacity buffer of
//! timestamped [`TraceEvent`]s. When full, the *oldest* event is dropped
//! and a drop counter advances — a bounded trace can lose history but
//! never lies about having lost it. Rings are drained or peeked (the
//! observer's `/blackbox`) without stopping the producer. The same
//! storage holds other fixed-size entries: a runtime's span log is a
//! `TraceRing<Span>` (see [`crate::span`]).

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::clock::cycles_now;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// An allocation request completed; `a` = size, `b` = round-trip cycles.
    Alloc,
    /// A free completed; `a` = size if known (else 0), `b` = round-trip cycles.
    Free,
    /// A fire-and-forget message reached the ring; stamped when the ring
    /// had room for it (before it is written), `a` = ring cells queued
    /// ahead of it, `b` = cycles it waited for room (the same value its
    /// post-latency record holds). A post has no span: this one event is
    /// its whole record.
    Post,
    /// A client refilled a magazine; `a` = size class, `b` = blocks
    /// received.
    Refill,
    /// The service loop drained a client's post ring; `a` = records
    /// drained.
    Drain,
    /// The service wait loop changed phase; `a` = from, `b` = to
    /// (see `ngm-offload`'s wait-phase encoding).
    WaitTransition,
    /// A request-path failure edge; `a` = reason code (see `ngm-core`'s
    /// `FailureReason`), `b` = the shard implicated. Recorded into the
    /// tier's control ring, whose storage is allocated once, so
    /// recording one never allocates.
    Failure,
}

impl TraceEventKind {
    /// Stable lowercase label used by exporters.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            TraceEventKind::Alloc => "alloc",
            TraceEventKind::Free => "free",
            TraceEventKind::Post => "post",
            TraceEventKind::Refill => "refill",
            TraceEventKind::Drain => "drain",
            TraceEventKind::WaitTransition => "wait_transition",
            TraceEventKind::Failure => "failure",
        }
    }
}

/// One timestamped trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// [`cycles_now`] at record time.
    pub tsc: u64,
    /// Producer thread id (runtime-assigned, not OS tid).
    pub thread: u32,
    /// Event kind.
    pub kind: TraceEventKind,
    /// Kind-specific payload (see [`TraceEventKind`] docs).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

struct RingInner<E> {
    buf: VecDeque<E>,
    dropped: u64,
}

/// A bounded ring of trace events, or of any other fixed-size entry
/// (oldest dropped on overflow). Its storage is allocated once, at
/// construction: a push at capacity pops the oldest entry first, so the
/// buffer never grows and a push never allocates.
pub struct TraceRing<E = TraceEvent> {
    inner: Mutex<RingInner<E>>,
    capacity: usize,
    thread: u32,
}

impl<E> std::fmt::Debug for TraceRing<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity)
            .field("thread", &self.thread)
            .finish_non_exhaustive()
    }
}

impl<E: Copy> TraceRing<E> {
    /// A ring holding at most `capacity` entries for runtime thread
    /// `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(thread: u32, capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs nonzero capacity");
        TraceRing {
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                dropped: 0,
            }),
            capacity,
            thread,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner<E>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends `entry`. Drops (and counts) the oldest entry if the ring
    /// is full.
    pub fn record(&self, entry: E) {
        let mut g = self.lock();
        if g.buf.len() == self.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(entry);
    }

    /// The runtime thread id this ring records for.
    #[must_use]
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Entries currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether no entries are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries dropped to overflow since creation (not reset by
    /// draining).
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.lock().dropped
    }

    /// Removes and returns all buffered entries (oldest first), plus the
    /// cumulative overflow-drop count at drain time.
    #[must_use]
    pub fn drain(&self) -> TraceDrain<E> {
        let mut g = self.lock();
        TraceDrain {
            events: g.buf.drain(..).collect(),
            dropped_total: g.dropped,
        }
    }

    /// Copies up to the `last` most recent entries (oldest first)
    /// without draining — the read of a post-mortem view, which must not
    /// consume the history someone else may still drain.
    #[must_use]
    pub fn peek(&self, last: usize) -> Vec<E> {
        let g = self.lock();
        let skip = g.buf.len().saturating_sub(last);
        g.buf.iter().skip(skip).copied().collect()
    }
}

impl TraceRing {
    /// Records an event, timestamping it now. Drops (and counts) the
    /// oldest event if the ring is full.
    pub fn push(&self, kind: TraceEventKind, a: u64, b: u64) {
        self.push_at(cycles_now(), kind, a, b);
    }

    /// Records an event with an explicit timestamp: one taken where the
    /// event happened, before the producer got around to recording it.
    /// Events within one ring may therefore be slightly out of `tsc`
    /// order; mergers sort.
    pub fn push_at(&self, tsc: u64, kind: TraceEventKind, a: u64, b: u64) {
        self.record(TraceEvent {
            tsc,
            thread: self.thread,
            kind,
            a,
            b,
        });
    }
}

/// Result of [`TraceRing::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDrain<E = TraceEvent> {
    /// Drained entries, oldest first.
    pub events: Vec<E>,
    /// Cumulative events lost to overflow over the ring's lifetime.
    pub dropped_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_in_order() {
        let r = TraceRing::new(7, 8);
        for i in 0..5 {
            r.push(TraceEventKind::Alloc, i, 0);
        }
        let d = r.drain();
        assert_eq!(d.dropped_total, 0);
        let payloads: Vec<u64> = d.events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
        assert!(d.events.iter().all(|e| e.thread == 7));
        assert!(d.events.windows(2).all(|w| w[0].tsc <= w[1].tsc));
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let r = TraceRing::new(0, 4);
        for i in 0..10 {
            r.push(TraceEventKind::Post, i, 0);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped_total(), 6);
        let d = r.drain();
        let payloads: Vec<u64> = d.events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9], "newest survive");
        assert_eq!(d.dropped_total, 6);
    }

    #[test]
    fn drain_preserves_drop_counter() {
        let r = TraceRing::new(0, 2);
        for i in 0..5 {
            r.push(TraceEventKind::Free, i, 0);
        }
        assert_eq!(r.drain().dropped_total, 3);
        r.push(TraceEventKind::Free, 9, 0);
        let d = r.drain();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.dropped_total, 3, "counter survives draining");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TraceEventKind::WaitTransition.label(), "wait_transition");
        assert_eq!(TraceEventKind::Failure.label(), "failure");
    }

    #[test]
    fn a_full_ring_never_grows_its_storage() {
        let r = TraceRing::new(0, 16);
        let storage = r.lock().buf.capacity();
        assert!(storage >= 16);
        for i in 0..3 * 16 {
            r.push(TraceEventKind::Failure, i, 0);
            assert_eq!(r.lock().buf.capacity(), storage, "push {i} reallocated");
        }
        assert_eq!(r.dropped_total(), 2 * 16);
    }

    #[test]
    fn push_at_records_explicit_timestamp() {
        let r = TraceRing::new(3, 4);
        r.push_at(12_345, TraceEventKind::Post, 7, 0);
        let d = r.drain();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].tsc, 12_345);
        assert_eq!(d.events[0].thread, 3);
    }

    #[test]
    fn peek_is_non_draining_and_bounded() {
        let r = TraceRing::new(0, 8);
        for i in 0..5 {
            r.push(TraceEventKind::Alloc, i, 0);
        }
        let tail = r.peek(3);
        assert_eq!(
            tail.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "newest `last` events, oldest first"
        );
        assert_eq!(r.len(), 5, "peek consumed nothing");
        assert_eq!(r.peek(100).len(), 5, "over-asking returns everything");
    }
}
