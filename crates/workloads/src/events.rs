//! The event vocabulary shared by all workloads.

/// One step of a workload.
///
/// Object identity is a dense `u64` assigned by the generator; replayers
/// map ids to addresses. `thread` selects the logical thread (mapped to a
/// simulated core or a real OS thread by the replayer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Allocate `size` bytes as object `id`.
    Malloc {
        /// Logical thread performing the allocation.
        thread: u8,
        /// Fresh object identifier.
        id: u64,
        /// Requested bytes.
        size: u32,
    },
    /// Free object `id`.
    Free {
        /// Logical thread performing the free.
        thread: u8,
        /// Object to release.
        id: u64,
    },
    /// Read or write `len` bytes at `offset` within object `id`.
    Touch {
        /// Logical thread touching the memory.
        thread: u8,
        /// Target object.
        id: u64,
        /// Byte offset within the object.
        offset: u32,
        /// Bytes touched.
        len: u32,
        /// Store (`true`) or load (`false`).
        write: bool,
    },
    /// Execute `amount` allocation-unrelated instructions.
    Compute {
        /// Logical thread doing the work.
        thread: u8,
        /// Instruction count.
        amount: u32,
    },
}

impl Event {
    /// The logical thread this event runs on.
    pub fn thread(&self) -> u8 {
        match *self {
            Event::Malloc { thread, .. }
            | Event::Free { thread, .. }
            | Event::Touch { thread, .. }
            | Event::Compute { thread, .. } => thread,
        }
    }
}

/// Aggregate facts about a stream, for sanity checks and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total events.
    pub events: u64,
    /// Malloc events.
    pub mallocs: u64,
    /// Free events.
    pub frees: u64,
    /// Touch events.
    pub touches: u64,
    /// Total compute instructions.
    pub compute: u64,
    /// Bytes requested across all mallocs.
    pub bytes_requested: u64,
    /// Maximum simultaneously-live objects.
    pub peak_live: u64,
    /// Distinct threads seen.
    pub threads: u8,
}

impl StreamSummary {
    /// Scans a stream and accumulates its summary (consumes the iterator).
    pub fn scan(events: impl Iterator<Item = Event>) -> Self {
        let mut s = StreamSummary::default();
        let mut live: i64 = 0;
        for e in events {
            s.events += 1;
            s.threads = s.threads.max(e.thread() + 1);
            match e {
                Event::Malloc { size, .. } => {
                    s.mallocs += 1;
                    s.bytes_requested += u64::from(size);
                    live += 1;
                    s.peak_live = s.peak_live.max(live as u64);
                }
                Event::Free { .. } => {
                    s.frees += 1;
                    live -= 1;
                }
                Event::Touch { .. } => s.touches += 1,
                Event::Compute { amount, .. } => s.compute += u64::from(amount),
            }
        }
        s
    }
}

/// Validates that a stream is well-formed: every `Free`/`Touch` names a
/// live object, ids are never reused, and frees balance mallocs (up to
/// `allow_leaks`).
///
/// Returns the summary on success; a description of the first violation
/// otherwise. Used by property tests on every generator.
pub fn validate(
    events: impl Iterator<Item = Event>,
    allow_leaks: bool,
) -> Result<StreamSummary, String> {
    use std::collections::HashMap;
    let mut live: HashMap<u64, u32> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    let mut summary = StreamSummary::default();
    let mut live_count: i64 = 0;
    for (i, e) in events.enumerate() {
        summary.events += 1;
        summary.threads = summary.threads.max(e.thread() + 1);
        match e {
            Event::Malloc { id, size, .. } => {
                if !seen.insert(id) {
                    return Err(format!("event {i}: id {id} reused"));
                }
                live.insert(id, size);
                summary.mallocs += 1;
                summary.bytes_requested += u64::from(size);
                live_count += 1;
                summary.peak_live = summary.peak_live.max(live_count as u64);
            }
            Event::Free { id, .. } => {
                if live.remove(&id).is_none() {
                    return Err(format!("event {i}: free of dead id {id}"));
                }
                summary.frees += 1;
                live_count -= 1;
            }
            Event::Touch {
                id, offset, len, ..
            } => {
                match live.get(&id) {
                    None => return Err(format!("event {i}: touch of dead id {id}")),
                    Some(&size) => {
                        if u64::from(offset) + u64::from(len) > u64::from(size) {
                            return Err(format!(
                                "event {i}: touch [{offset}, {offset}+{len}) out of bounds of {size}"
                            ));
                        }
                    }
                }
                summary.touches += 1;
            }
            Event::Compute { amount, .. } => summary.compute += u64::from(amount),
        }
    }
    if !allow_leaks && !live.is_empty() {
        return Err(format!("{} objects leaked", live.len()));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(id: u64, size: u32) -> Event {
        Event::Malloc {
            thread: 0,
            id,
            size,
        }
    }

    fn f(id: u64) -> Event {
        Event::Free { thread: 0, id }
    }

    #[test]
    fn validate_accepts_balanced_stream() {
        let ev = vec![
            m(1, 64),
            Event::Touch {
                thread: 0,
                id: 1,
                offset: 0,
                len: 64,
                write: true,
            },
            f(1),
        ];
        let s = validate(ev.into_iter(), false).unwrap();
        assert_eq!(s.mallocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.peak_live, 1);
    }

    #[test]
    fn validate_rejects_double_free() {
        let ev = vec![m(1, 8), f(1), f(1)];
        assert!(validate(ev.into_iter(), false).is_err());
    }

    #[test]
    fn validate_rejects_oob_touch() {
        let ev = vec![
            m(1, 8),
            Event::Touch {
                thread: 0,
                id: 1,
                offset: 4,
                len: 8,
                write: false,
            },
            f(1),
        ];
        assert!(validate(ev.into_iter(), false).is_err());
    }

    #[test]
    fn validate_rejects_leak_unless_allowed() {
        let ev = vec![m(1, 8)];
        assert!(validate(ev.clone().into_iter(), false).is_err());
        assert!(validate(ev.into_iter(), true).is_ok());
    }

    #[test]
    fn summary_counts_compute_and_threads() {
        let ev = vec![
            Event::Compute {
                thread: 2,
                amount: 100,
            },
            Event::Compute {
                thread: 0,
                amount: 50,
            },
        ];
        let s = StreamSummary::scan(ev.into_iter());
        assert_eq!(s.compute, 150);
        assert_eq!(s.threads, 3);
        assert_eq!((s.mallocs, s.frees), (0, 0));
    }
}
