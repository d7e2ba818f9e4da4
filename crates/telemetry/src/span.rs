//! Request-lifecycle spans.
//!
//! Every synchronous request through the offload runtime is one **span**:
//! minted at the client call site, stamped at each phase boundary of the
//! slot protocol, and terminated when the client observes the response
//! (or gives up). The phase sequence mirrors the protocol states; the
//! response is published where it is written, so `served` is also the
//! instant it was published:
//!
//! ```text
//!  enqueue ──► claimed ──► served ──► observed
//!     │           │
//!     │           └──► abandoned   (server claimed, then died mid-serve)
//!     └──────────────► retracted   (deadline won the REQUEST→EMPTY race)
//! ```
//!
//! Span ids are minted from `(runtime thread id, slot publish sequence)`,
//! so a retracted-then-republished request gets a *new* id — the
//! publish-sequence machinery that already disambiguates fault-injected
//! drops guarantees spans never alias across retries. Phase events are
//! recorded into the ordinary [`crate::trace::TraceRing`]s (kind
//! [`TraceEventKind::Span`], `a` = span id, `b` = phase code) with their
//! true boundary timestamps, so a drained trace reconstructs into spans
//! via [`reconstruct`].

use std::collections::HashMap;

use crate::trace::{TraceEvent, TraceEventKind};

/// A phase boundary in a request's lifecycle. Discriminants are the wire
/// encoding carried in a span trace event's `b` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanPhase {
    /// Client published the request (stamped just after the REQUEST
    /// store).
    Enqueue = 0,
    /// Server claimed the request (REQUEST → SERVING; stamped just before
    /// the claim).
    Claimed = 1,
    /// Server wrote the response where the client reads it and
    /// published it (RESPONSE store; stamped just after it).
    Served = 2,
    /// Client observed and consumed the response. Terminal.
    Observed = 3,
    /// Client retracted an unclaimed request at its deadline. Terminal.
    Retracted = 4,
    /// Client gave up on a claimed request (server died). Terminal.
    Abandoned = 5,
}

impl SpanPhase {
    /// All phases, in lifecycle order.
    pub const ALL: [SpanPhase; 6] = [
        SpanPhase::Enqueue,
        SpanPhase::Claimed,
        SpanPhase::Served,
        SpanPhase::Observed,
        SpanPhase::Retracted,
        SpanPhase::Abandoned,
    ];

    /// Wire encoding (the trace event's `b` payload).
    #[must_use]
    pub const fn code(self) -> u64 {
        self as u64
    }

    /// Decodes a wire code.
    #[must_use]
    pub const fn from_code(code: u64) -> Option<SpanPhase> {
        match code {
            0 => Some(SpanPhase::Enqueue),
            1 => Some(SpanPhase::Claimed),
            2 => Some(SpanPhase::Served),
            3 => Some(SpanPhase::Observed),
            4 => Some(SpanPhase::Retracted),
            5 => Some(SpanPhase::Abandoned),
            _ => None,
        }
    }

    /// Stable lowercase label used by exporters and dumps.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SpanPhase::Enqueue => "enqueue",
            SpanPhase::Claimed => "claimed",
            SpanPhase::Served => "served",
            SpanPhase::Observed => "observed",
            SpanPhase::Retracted => "retracted",
            SpanPhase::Abandoned => "abandoned",
        }
    }

    /// Whether this phase ends a span.
    #[must_use]
    pub const fn is_terminal(self) -> bool {
        matches!(
            self,
            SpanPhase::Observed | SpanPhase::Retracted | SpanPhase::Abandoned
        )
    }
}

/// Mints a synchronous-call span id from the client's runtime thread id
/// and the slot's publish sequence for this request. The sequence bumps
/// on every publish — including the republish after a retract — so a
/// retried request is a distinct span by construction.
#[must_use]
pub const fn call_span_id(thread: u32, publish_seq: u64) -> u64 {
    ((thread as u64) << 47) | (publish_seq & ((1 << 47) - 1))
}

/// One reconstructed span: its id and the phase boundaries observed for
/// it, in lifecycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (see [`call_span_id`]).
    pub id: u64,
    /// Observed `(phase, tsc)` boundaries, sorted by phase order.
    pub phases: Vec<(SpanPhase, u64)>,
}

impl SpanRecord {
    /// Whether the span is **well-nested**: phases strictly increase in
    /// lifecycle order, no phase repeats, at most one terminal phase and
    /// only in final position.
    #[must_use]
    pub fn well_nested(&self) -> bool {
        if self.phases.is_empty() {
            return false;
        }
        let ordered = self
            .phases
            .windows(2)
            .all(|w| (w[0].0.code()) < (w[1].0.code()));
        let terminals_last = self
            .phases
            .iter()
            .enumerate()
            .all(|(i, (p, _))| !p.is_terminal() || i == self.phases.len() - 1);
        ordered && terminals_last
    }

    /// Whether phase timestamps are monotone non-decreasing in lifecycle
    /// order (cross-core TSC reads can tie, never regress on an
    /// invariant TSC).
    #[must_use]
    pub fn phase_monotonic(&self) -> bool {
        self.phases.windows(2).all(|w| w[0].1 <= w[1].1)
    }

    /// Whether the span reached a terminal phase.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.phases.last().is_some_and(|(p, _)| p.is_terminal())
    }

    /// The timestamp of `phase`, if observed.
    #[must_use]
    pub fn at(&self, phase: SpanPhase) -> Option<u64> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|&(_, tsc)| tsc)
    }

    /// End-to-end cycles from enqueue to the terminal phase, if both
    /// were observed.
    #[must_use]
    pub fn total_cycles(&self) -> Option<u64> {
        let start = self.at(SpanPhase::Enqueue)?;
        let (last, end) = *self.phases.last()?;
        last.is_terminal().then(|| end.saturating_sub(start))
    }
}

/// Rebuilds spans from drained trace events (any mix of threads and
/// kinds — non-span events are ignored). Returns spans sorted by their
/// earliest timestamp; each span's phases are sorted in lifecycle order.
#[must_use]
pub fn reconstruct(events: &[TraceEvent]) -> Vec<SpanRecord> {
    let mut by_id: HashMap<u64, Vec<(SpanPhase, u64)>> = HashMap::new();
    for e in events {
        if e.kind != TraceEventKind::Span {
            continue;
        }
        let Some(phase) = SpanPhase::from_code(e.b) else {
            continue;
        };
        by_id.entry(e.a).or_default().push((phase, e.tsc));
    }
    let mut spans: Vec<SpanRecord> = by_id
        .into_iter()
        .map(|(id, mut phases)| {
            phases.sort_by_key(|&(p, _)| p.code());
            SpanRecord { id, phases }
        })
        .collect();
    spans.sort_by_key(|s| s.phases.first().map_or(u64::MAX, |&(_, tsc)| tsc));
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRing;

    fn push_span(ring: &TraceRing, tsc: u64, id: u64, phase: SpanPhase) {
        ring.push_at(tsc, TraceEventKind::Span, id, phase.code());
    }

    #[test]
    fn codes_roundtrip() {
        for p in SpanPhase::ALL {
            assert_eq!(SpanPhase::from_code(p.code()), Some(p));
        }
        assert_eq!(SpanPhase::from_code(99), None);
    }

    #[test]
    fn ids_never_alias_across_threads_or_publishes() {
        assert_ne!(call_span_id(1, 5), call_span_id(2, 5));
        assert_ne!(call_span_id(1, 5), call_span_id(1, 6));
    }

    #[test]
    fn reconstructs_interleaved_spans() {
        let ring = TraceRing::new(1, 64);
        let (a, b) = (call_span_id(1, 1), call_span_id(1, 2));
        // Interleave two spans' events out of phase order.
        push_span(&ring, 10, a, SpanPhase::Enqueue);
        push_span(&ring, 30, b, SpanPhase::Enqueue);
        push_span(&ring, 20, a, SpanPhase::Claimed);
        push_span(&ring, 25, a, SpanPhase::Served);
        push_span(&ring, 28, a, SpanPhase::Observed);
        push_span(&ring, 40, b, SpanPhase::Retracted);
        let spans = reconstruct(&ring.drain().events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, a, "sorted by start time");
        assert!(spans[0].well_nested() && spans[0].phase_monotonic());
        assert!(spans[1].well_nested() && spans[1].phase_monotonic());
        assert!(spans[0].completed() && spans[1].completed());
        assert_eq!(spans[0].total_cycles(), Some(18));
        assert_eq!(spans[1].at(SpanPhase::Retracted), Some(40));
        assert_eq!(spans[1].at(SpanPhase::Claimed), None);
    }

    #[test]
    fn malformed_spans_are_detected() {
        // Repeated phase.
        let s = SpanRecord {
            id: 1,
            phases: vec![(SpanPhase::Enqueue, 1), (SpanPhase::Enqueue, 2)],
        };
        assert!(!s.well_nested());
        // Timestamp regression.
        let s = SpanRecord {
            id: 2,
            phases: vec![(SpanPhase::Enqueue, 9), (SpanPhase::Observed, 3)],
        };
        assert!(s.well_nested() && !s.phase_monotonic());
        // Empty.
        assert!(!SpanRecord {
            id: 3,
            phases: vec![]
        }
        .well_nested());
    }
}
