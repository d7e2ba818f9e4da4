//! Request-lifecycle spans, one record each.
//!
//! A traced synchronous request through the offload runtime is one
//! **span**, written once, whole, by the side that ended it. The phase
//! sequence mirrors the slot protocol; the response is published where it
//! is written, so `served` is also the instant it was published:
//!
//! ```text
//!  enqueue ──► claimed ──► served ──► observed
//!     │
//!     ├──────────────────────────────► abandoned   (server claimed, then died mid-serve)
//!     └──────────────────────────────► retracted   (deadline won the REQUEST→EMPTY race)
//! ```
//!
//! The room logs every request it served, once the client has collected
//! the response; the client logs a request it retracted or abandoned,
//! with no claim. A span is named by its client's runtime thread id and
//! the slot publish sequence, which bumps on every publish — including
//! the republish after a retract — so a retried request is a distinct
//! span by construction. Spans live in a [`crate::trace::TraceRing`] of
//! their own, so nothing pairs events back into spans.

/// A phase boundary in a request's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Client published the request (stamped just after the REQUEST
    /// store).
    Enqueue,
    /// Server claimed the request (REQUEST → SERVING; stamped just before
    /// the claim).
    Claimed,
    /// Server wrote the response where the client reads it and
    /// published it (RESPONSE store; stamped just after it).
    Served,
    /// Client observed the response. Terminal.
    Observed,
    /// Client retracted an unclaimed request at its deadline. Terminal.
    Retracted,
    /// Client gave up on a claimed request (server died). Terminal.
    Abandoned,
}

impl SpanPhase {
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
}

/// One synchronous request's whole lifecycle, as the side that ended it
/// logged it. Fixed-size, so a log of them is allocated once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The client's runtime thread id.
    pub thread: u32,
    /// The slot publish sequence of the request.
    pub seq: u64,
    /// Whether the request carried a batch (a magazine refill).
    pub batched: bool,
    /// When the client published it.
    pub enqueue: u64,
    /// When the room claimed it and published its response, both within
    /// `[enqueue, end_tsc]`; `None` unless the span ended
    /// [`SpanPhase::Observed`].
    pub served: Option<(u64, u64)>,
    /// The terminal phase.
    pub end: SpanPhase,
    /// When the span ended.
    pub end_tsc: u64,
}

impl Span {
    /// The phase boundaries, in lifecycle order.
    pub fn phases(&self) -> impl Iterator<Item = (SpanPhase, u64)> {
        let served = self
            .served
            .map(|(claimed, served)| [(SpanPhase::Claimed, claimed), (SpanPhase::Served, served)]);
        std::iter::once((SpanPhase::Enqueue, self.enqueue))
            .chain(served.into_iter().flatten())
            .chain(std::iter::once((self.end, self.end_tsc)))
    }

    /// End-to-end cycles from enqueue to the terminal phase.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.end_tsc.saturating_sub(self.enqueue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_lists_its_phases_in_lifecycle_order() {
        let observed = Span {
            thread: 1,
            seq: 7,
            batched: false,
            enqueue: 10,
            served: Some((20, 25)),
            end: SpanPhase::Observed,
            end_tsc: 28,
        };
        let retracted = Span {
            served: None,
            end: SpanPhase::Retracted,
            ..observed
        };
        let labelled = |s: Span| s.phases().map(|(p, t)| (p.label(), t)).collect::<Vec<_>>();
        let stamps = [
            ("enqueue", 10),
            ("claimed", 20),
            ("served", 25),
            ("observed", 28),
        ];
        assert_eq!(labelled(observed), stamps);
        assert_eq!(labelled(retracted), [("enqueue", 10), ("retracted", 28)]);
        assert_eq!(observed.total_cycles(), 18);
    }
}
