//! Spans the benchmark stamps around its own calls into each layer.
//!
//! The program is not instrumented: a span opens just before the
//! benchmark calls a layer's public function and closes just after it
//! returns, so a span's duration is what the caller saw. Spans stay in
//! memory for the whole traced pass and are written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::adapter::{cycles_now, cycles_per_ns};
use crate::stats::Tail;

/// Identifier of a recorded span; 0 means "no parent".
pub type SpanId = u32;

/// One recorded span; times are raw [`cycles_now`] readings.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Opening timestamp.
    pub start: u64,
    /// Closing timestamp.
    pub end: u64,
}

/// What a replay loop needs from a tracer. The untraced loops are
/// instantiated with [`Off`], whose methods compile to nothing, so the
/// end-to-end rounds carry no stamping cost at all.
pub trait Tracer {
    /// A timestamp to open a span with.
    fn now(&self) -> u64;
    /// Closes a span opened at `start` under the current root; returns
    /// its id.
    fn close(&mut self, name: &'static str, start: u64) -> SpanId;
    /// As [`Tracer::close`] with an explicit causing span.
    fn close_under(&mut self, parent: SpanId, name: &'static str, start: u64) -> SpanId;
}

/// The tracer of the untraced rounds.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: &'static str, _: u64) -> SpanId {
        0
    }
    #[inline(always)]
    fn close_under(&mut self, _: SpanId, _: &'static str, _: u64) -> SpanId {
        0
    }
}

/// In-memory span store for one traced pass.
pub struct Recorder {
    spans: Vec<Span>,
    /// Id of the enclosing `replay.pass` (or other root) span, reserved
    /// at [`Recorder::open_root`] and filled in at `close_root`.
    root: SpanId,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so the traced pass
    /// itself never reallocates (which would be a `System` call inside
    /// the measured region).
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            spans: Vec::with_capacity(capacity + 1),
            root: 0,
        }
    }

    /// Opens the root span; every [`Tracer::close`] until
    /// [`Recorder::close_root`] records a child of it.
    pub fn open_root(&mut self, name: &'static str) {
        self.spans.push(Span {
            parent: 0,
            name,
            start: cycles_now(),
            end: 0,
        });
        self.root = self.spans.len() as SpanId;
    }

    /// Closes the root span.
    pub fn close_root(&mut self) {
        self.spans[self.root as usize - 1].end = cycles_now();
        self.root = 0;
    }

    /// Per-name totals: count, summed duration, summed self time
    /// (duration minus the part of the interval the span's children
    /// cover) and duration percentiles, in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let per_ns = cycles_per_ns();
        // Children of each parent, as intervals clipped to the parent.
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                let p = &self.spans[s.parent as usize - 1];
                let (a, b) = (s.start.max(p.start), s.end.min(p.end));
                if a < b {
                    children.entry(s.parent).or_default().push((a, b));
                }
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = children
                .get_mut(&(i as SpanId + 1))
                .map_or(0, |c| union_len(c));
            let ns = (s.end - s.start) as f64 / per_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += ns;
            t.self_ns += (s.end - s.start - covered) as f64 / per_ns;
            durations.entry(s.name).or_default().push(ns as u64);
        }
        for (name, d) in &mut durations {
            out.get_mut(name).expect("same keys").tail = Tail::of(d);
        }
        out
    }

    /// Writes every span as one JSON object per line,
    /// `{id, parent, name, start, end}`, times in nanoseconds since the
    /// first span opened.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let per_ns = cycles_per_ns();
        let epoch = self.spans.iter().map(|s| s.start).min().unwrap_or(0);
        let ns = |c: u64| ((c - epoch) as f64 / per_ns) as u64;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
                i + 1,
                s.parent,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        w.flush()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

impl Tracer for Recorder {
    #[inline]
    fn now(&self) -> u64 {
        cycles_now()
    }
    #[inline]
    fn close(&mut self, name: &'static str, start: u64) -> SpanId {
        self.close_under(self.root, name, start)
    }
    #[inline]
    fn close_under(&mut self, parent: SpanId, name: &'static str, start: u64) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            start,
            end: cycles_now(),
        });
        self.spans.len() as SpanId
    }
}

/// Totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans.
    pub count: u64,
    /// Summed durations.
    pub total_ns: f64,
    /// Summed self times.
    pub self_ns: f64,
    /// Percentiles of the durations.
    pub tail: Tail,
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(5, 9), (0, 4), (3, 6), (20, 21)]), 10);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut r = Recorder::with_capacity(4);
        r.spans = vec![
            Span {
                parent: 0,
                name: "root",
                start: 0,
                end: 100,
            },
            Span {
                parent: 1,
                name: "a",
                start: 10,
                end: 30,
            },
            Span {
                parent: 1,
                name: "a",
                start: 20,
                end: 50,
            },
            // Caused by span 2 but after it: covers none of it.
            Span {
                parent: 2,
                name: "b",
                start: 60,
                end: 70,
            },
        ];
        let s = r.summary();
        let per_ns = cycles_per_ns();
        assert!((s["root"].self_ns - 60.0 / per_ns).abs() < 1e-6);
        assert!((s["a"].self_ns - 50.0 / per_ns).abs() < 1e-6);
        assert_eq!(s["b"].count, 1);
    }
}
