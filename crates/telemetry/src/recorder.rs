//! Continuous flight recorder: the tier's one time series, as JSONL.
//!
//! A `Failure` trace event answers "what just failed"; the flight
//! recorder answers "what was the tier doing for the last ten
//! minutes". Every recording interval appends one [`RecordFrame`] — the
//! serving-shard count, each shard's health, every shard's cumulative
//! counters and live ring occupancy, and the tier-wide deadline/fallback
//! counters — as one JSON line, and [`read_recording`] reads the file
//! back (`repro obs` checks it holds every frame appended). The counters
//! are cumulative, so a window over any span is the difference of the
//! two frames that bound it, taken by whoever reads the file.
//!
//! The format is deliberately flat, hand-rolled JSON: it parses with
//! the hand-rolled reader here ([`RecordFrame::parse`]) *and* with any
//! real JSON tool (`jq`), and needs no serialization dependency.
//! Rotation is size-based and bounded: when the active file would
//! exceed the configured budget it is renamed to `<path>.1` (replacing
//! any previous rotation), so disk usage never exceeds twice the
//! budget.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Rotation budget the observer gives the active recording file.
pub const DEFAULT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// Health glyphs used in [`RecordFrame::states`]: one per shard, in
/// shard order.
pub const STATE_GLYPHS: [(char, &str); 2] = [('S', "serving"), ('D', "down")];

/// One shard's sample inside a frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSample {
    /// Shard index.
    pub shard: u64,
    /// Synchronous calls served, cumulative.
    pub calls: u64,
    /// Deadline expiries, cumulative.
    pub deadlines: u64,
    /// Full-ring post retries, cumulative.
    pub retries: u64,
    /// Free-ring occupancy at sample time, in cells.
    pub ring: u64,
}

/// One interval's worth of tier state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordFrame {
    /// Sample timestamp ([`crate::clock::cycles_now`]).
    pub tsc: u64,
    /// Shards whose service thread was running at sample time.
    pub serving: u64,
    /// One glyph per shard, shard order (see [`STATE_GLYPHS`]).
    pub states: String,
    /// Deadline expiries, cumulative tier-wide.
    pub deadlines: u64,
    /// Inline-fallback allocations, cumulative tier-wide.
    pub fallbacks: u64,
    /// Cycles spent in observability work so far (scrapes + record
    /// appends + endpoint renders), cumulative.
    pub obs_cycles: u64,
    /// Every shard, in shard order.
    pub shards: Vec<ShardSample>,
}

impl RecordFrame {
    /// Renders the frame as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(160 + self.shards.len() * 96);
        let _ = write!(
            out,
            "{{\"tsc\":{},\"serving\":{},\"states\":\"{}\",\"deadlines\":{},\"fallbacks\":{},\"obs_cycles\":{},\"shards\":[",
            self.tsc,
            self.serving,
            self.states,
            self.deadlines,
            self.fallbacks,
            self.obs_cycles
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"calls\":{},\"deadlines\":{},\"retries\":{},\"ring\":{}}}",
                s.shard, s.calls, s.deadlines, s.retries, s.ring
            );
        }
        out.push_str("]}");
        out
    }

    /// Parses one JSON line produced by [`RecordFrame::to_json`].
    /// Returns `None` for malformed lines (e.g. a line truncated by
    /// process death — a flight recorder must tolerate its own crash).
    #[must_use]
    pub fn parse(line: &str) -> Option<RecordFrame> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let (head, shards_src) = line.split_once("\"shards\":[")?;
        let shards_src = shards_src.strip_suffix("]}")?;
        let mut shards = Vec::new();
        if !shards_src.is_empty() {
            for obj in shards_src.split("},") {
                let obj = obj.trim_start_matches('{').trim_end_matches('}');
                shards.push(ShardSample {
                    shard: field_u64(obj, "shard")?,
                    calls: field_u64(obj, "calls")?,
                    deadlines: field_u64(obj, "deadlines")?,
                    retries: field_u64(obj, "retries")?,
                    ring: field_u64(obj, "ring")?,
                });
            }
        }
        Some(RecordFrame {
            tsc: field_u64(head, "tsc")?,
            serving: field_u64(head, "serving")?,
            states: field_str(head, "states")?,
            deadlines: field_u64(head, "deadlines")?,
            fallbacks: field_u64(head, "fallbacks")?,
            obs_cycles: field_u64(head, "obs_cycles")?,
            shards,
        })
    }
}

fn field_u64(src: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = src.find(&pat)? + pat.len();
    let rest = &src[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str(src: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = src.find(&pat)? + pat.len();
    let rest = &src[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// A size-bounded JSONL appender for [`RecordFrame`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    path: PathBuf,
    out: BufWriter<File>,
    written: u64,
    rotate_bytes: u64,
    frames: u64,
}

impl FlightRecorder {
    /// Creates (truncating) the recording at `path`, rotating once the
    /// active file would pass `rotate_bytes` (the observer passes
    /// [`DEFAULT_ROTATE_BYTES`]).
    pub fn create(path: impl Into<PathBuf>, rotate_bytes: u64) -> std::io::Result<FlightRecorder> {
        let path = path.into();
        let out = BufWriter::new(File::create(&path)?);
        Ok(FlightRecorder {
            path,
            out,
            written: 0,
            rotate_bytes,
            frames: 0,
        })
    }

    /// Appends one frame, rotating first when the active file would
    /// exceed the budget. Each line is flushed through to the OS so a
    /// crash loses at most the line being written.
    pub fn append(&mut self, frame: &RecordFrame) -> std::io::Result<()> {
        let line = frame.to_json();
        let len = line.len() as u64 + 1;
        if self.written > 0 && self.written + len > self.rotate_bytes {
            self.rotate()?;
        }
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.written += len;
        self.frames += 1;
        Ok(())
    }

    fn rotate(&mut self) -> std::io::Result<()> {
        self.out.flush()?;
        let mut rotated = self.path.clone().into_os_string();
        rotated.push(".1");
        std::fs::rename(&self.path, &rotated)?;
        self.out = BufWriter::new(File::create(&self.path)?);
        self.written = 0;
        Ok(())
    }

    /// Path of the active recording file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written to the *active* file (resets on rotation).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Frames appended over the recorder's lifetime (across rotations).
    #[must_use]
    pub fn frames_recorded(&self) -> u64 {
        self.frames
    }
}

/// Reads every parseable frame from a recording file, oldest first.
/// Malformed lines (a torn tail write) are skipped, not fatal.
pub fn read_recording(path: impl AsRef<Path>) -> std::io::Result<Vec<RecordFrame>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text.lines().filter_map(RecordFrame::parse).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tsc: u64, serving: u64) -> RecordFrame {
        RecordFrame {
            tsc,
            serving,
            states: "SSDS".into(),
            deadlines: 3,
            fallbacks: 1,
            obs_cycles: 999,
            shards: vec![
                ShardSample {
                    shard: 0,
                    calls: 100,
                    deadlines: 1,
                    retries: 0,
                    ring: 56,
                },
                ShardSample {
                    shard: 1,
                    calls: 12,
                    deadlines: 0,
                    retries: 2,
                    ring: 64,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let f = frame(1234, 2);
        let parsed = RecordFrame::parse(&f.to_json()).expect("parse own output");
        assert_eq!(parsed, f);
    }

    #[test]
    fn empty_shards_round_trip() {
        let f = RecordFrame {
            tsc: 1,
            states: "DDDD".into(),
            ..RecordFrame::default()
        };
        assert_eq!(RecordFrame::parse(&f.to_json()), Some(f));
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        assert_eq!(RecordFrame::parse(""), None);
        assert_eq!(RecordFrame::parse("{\"tsc\":12"), None);
        assert_eq!(RecordFrame::parse("not json at all"), None);
        // A torn write: valid prefix, truncated shards array.
        let whole = frame(9, 1).to_json();
        assert_eq!(RecordFrame::parse(&whole[..whole.len() - 10]), None);
    }

    #[test]
    fn recorder_appends_and_reads_back() {
        let dir = std::env::temp_dir().join(format!("ngm-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("flight.jsonl");
        let mut rec = FlightRecorder::create(&path, DEFAULT_ROTATE_BYTES).expect("create");
        for i in 0..5 {
            rec.append(&frame(i, 2)).expect("append");
        }
        assert_eq!(rec.frames_recorded(), 5);
        let frames = read_recording(&path).expect("read");
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[4].tsc, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_bounds_the_active_file() {
        let dir = std::env::temp_dir().join(format!("ngm-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("flight.jsonl");
        let budget = 512u64;
        let mut rec = FlightRecorder::create(&path, budget).expect("create");
        for i in 0..100 {
            rec.append(&frame(i, 2)).expect("append");
        }
        assert!(rec.bytes_written() <= budget, "active file over budget");
        let rotated = dir.join("flight.jsonl.1");
        assert!(rotated.exists(), "rotation never happened");
        assert!(
            std::fs::metadata(&rotated).expect("rotated meta").len() <= budget,
            "rotated file over budget"
        );
        // The active file holds the newest frames.
        let tail = read_recording(&path).expect("read");
        assert_eq!(tail.last().expect("frames").tsc, 99);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
