//! Metric exporters: Prometheus text exposition and JSON snapshots.
//!
//! The runtime assembles a [`MetricsSnapshot`] — an ordered bag of named
//! counters, gauges, and histogram snapshots — and the exporters render
//! it. Histograms are exported Prometheus-summary style (`{quantile=...}`
//! series plus `_count`/`_sum`) rather than as 976 raw `_bucket` series.
//!
//! Both encoders are hand-rolled; the workspace builds without serde.

use crate::hist::HistogramSnapshot;

/// A point-in-time collection of named metrics.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    labeled_gauges: Vec<LabeledSample>,
    histograms: Vec<(String, HistogramSnapshot)>,
}

/// One gauge sample carrying a Prometheus label set. Label *names* must
/// be Prometheus-safe (callers use static literals); label *values* are
/// arbitrary strings — the renderers escape them.
#[derive(Debug, Clone)]
struct LabeledSample {
    name: String,
    labels: Vec<(String, String)>,
    value: i64,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a counter sample. Names must be Prometheus-safe
    /// (`[a-zA-Z_][a-zA-Z0-9_]*`); callers use static literals.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.counters.push((name.into(), value));
        self
    }

    /// Adds a gauge sample.
    pub fn gauge(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.gauges.push((name.into(), value));
        self
    }

    /// Adds a gauge sample with a label set (e.g. per allocation site or
    /// per PMU event). Label values may contain any characters; the
    /// renderers escape them.
    pub fn labeled_gauge(
        &mut self,
        name: impl Into<String>,
        labels: &[(&str, &str)],
        value: i64,
    ) -> &mut Self {
        self.labeled_gauges.push(LabeledSample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }

    /// Adds a histogram snapshot.
    pub fn histogram(&mut self, name: impl Into<String>, snap: HistogramSnapshot) -> &mut Self {
        self.histograms.push((name.into(), snap));
        self
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn get_histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    #[must_use]
    pub fn get_gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Number of labeled-gauge samples published under `name`.
    #[must_use]
    pub fn labeled_gauge_count(&self, name: &str) -> usize {
        self.labeled_gauges
            .iter()
            .filter(|s| s.name == name)
            .count()
    }

    /// Renders Prometheus text exposition format (version 0.0.4). Every
    /// metric family gets a `# HELP` line derived from the naming
    /// convention (see [`help_text`]) followed by its `# TYPE` line.
    #[must_use]
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# HELP {name} {}", help_text(name));
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# HELP {name} {}", help_text(name));
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        let mut last_labeled: Option<&str> = None;
        for s in &self.labeled_gauges {
            if last_labeled != Some(s.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", s.name, help_text(&s.name));
                let _ = writeln!(out, "# TYPE {} gauge", s.name);
                last_labeled = Some(s.name.as_str());
            }
            let _ = write!(out, "{}{{", s.name);
            for (i, (k, v)) in s.labels.iter().enumerate() {
                let _ = write!(out, "{}{k}=\"{}\"", comma(i), escape_label_value(v));
            }
            let _ = writeln!(out, "}} {}", s.value);
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# HELP {name} {}", help_text(name));
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, v) in [
                (0.5, h.p50()),
                (0.9, h.p90()),
                (0.99, h.p99()),
                (1.0, h.max()),
            ] {
                let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Renders a JSON document with full parity to the Prometheus path:
    /// `{"counters":{...},"gauges":{...},"labeled_gauges":[{"name","labels","value"},...],"histograms":{name:{count,sum,mean,p50,p90,p99,max,buckets:[[lo,hi,n],...]}}}`.
    /// Labeled gauges keep their label sets structured (name/labels/
    /// value objects, values escaped as JSON strings) and histograms
    /// carry their occupied buckets, so nothing the text exposition
    /// exports is lost in the JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let _ = write!(out, "{}{}:{v}", comma(i), json_str(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let _ = write!(out, "{}{}:{v}", comma(i), json_str(name));
        }
        out.push_str("},\"labeled_gauges\":[");
        for (i, s) in self.labeled_gauges.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"labels\":{{",
                comma(i),
                json_str(&s.name)
            );
            for (j, (k, v)) in s.labels.iter().enumerate() {
                let _ = write!(out, "{}{}:{}", comma(j), json_str(k), json_str(v));
            }
            let _ = write!(out, "}},\"value\":{}}}", s.value);
        }
        out.push_str("],\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"buckets\":[",
                comma(i),
                json_str(name),
                h.count(),
                h.sum(),
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
            );
            for (j, (lo, hi, c)) in h.nonzero_buckets().enumerate() {
                let _ = write!(out, "{}[{lo},{hi},{c}]", comma(j));
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

fn comma(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// Derives a `# HELP` description from the metric-name convention
/// (`ngm_` prefix, unit suffix). Generating help from the convention —
/// instead of a per-metric table in this crate — means a series added
/// by any layer of the runtime gets a well-formed HELP line without a
/// registry to keep in sync; the README's metric index carries the
/// prose documentation.
fn help_text(name: &str) -> String {
    // The Prometheus-convention families have fixed, well-known
    // meanings; everything else derives from the naming convention.
    match name {
        "ngm_up" => return "1 while the tier's metrics endpoint is serving.".into(),
        "ngm_build_info" => {
            return "Build metadata carried in labels; the value is always 1.".into()
        }
        "process_start_time_seconds" => {
            return "Start time of the process since the Unix epoch, in seconds.".into()
        }
        _ => {}
    }
    let stem = name.strip_prefix("ngm_").unwrap_or(name);
    if let Some(s) = stem.strip_suffix("_total") {
        format!("Cumulative count of {} events.", words(s))
    } else if let Some(s) = stem.strip_suffix("_cycles") {
        format!("Distribution of {} durations in TSC cycles.", words(s))
    } else if let Some(s) = stem.strip_suffix("_ns") {
        format!("Distribution of {} durations in nanoseconds.", words(s))
    } else if let Some(s) = stem.strip_suffix("_bytes") {
        format!("Gauge of {} in bytes.", words(s))
    } else if let Some(s) = stem.strip_suffix("_blocks") {
        format!("Gauge of {} in blocks.", words(s))
    } else {
        format!("Gauge of {}.", words(stem))
    }
}

fn words(s: &str) -> String {
    s.replace('_', " ")
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and line feed must be escaped (`\\`, `\"`,
/// `\n`); everything else passes through.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Validates Prometheus text exposition format 0.0.4: families
/// announced by `# HELP` + `# TYPE` before their samples, legal metric
/// names, known family kinds, unique families and series, numeric
/// sample values, balanced label quoting. Returns the first violation
/// as an error string.
///
/// This is the acceptance gate shared by the contract tests, the live
/// `/metrics` endpoint tests, and the `repro obs` harness — one
/// validator, applied to rendered and scraped text alike.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashSet;
    let mut families: HashSet<&str> = HashSet::new();
    let mut last_help: Option<&str> = None;
    let mut series_seen: HashSet<String> = HashSet::new();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            last_help = rest.split_whitespace().next();
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("TYPE names no metric: {line}"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("TYPE states no kind: {line}"))?;
            if !name_ok(name) {
                return Err(format!("bad family name: {line}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("bad family kind: {line}"));
            }
            if last_help != Some(name) {
                return Err(format!("TYPE for {name} must follow its HELP line"));
            }
            if !families.insert(name) {
                return Err(format!("family {name} announced twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment form: {line}"));
        }
        if line.is_empty() {
            continue;
        }
        // Sample: `name[{labels}] value`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample has no value: {line}"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("non-numeric sample value: {line}"));
        }
        let name = series
            .split(['{', ' '])
            .next()
            .ok_or_else(|| format!("sample has no name: {line}"))?;
        if !name_ok(name) {
            return Err(format!("bad sample name: {line}"));
        }
        // A summary's `_sum`/`_count` samples belong to the base family.
        let family_known = families.contains(name)
            || name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .is_some_and(|base| families.contains(base));
        if !family_known {
            return Err(format!("sample before its TYPE line: {line}"));
        }
        if !series_seen.insert(series.to_string()) {
            return Err(format!("duplicate series: {series}"));
        }
        if let Some(open) = series.find('{') {
            if !series.ends_with('}') {
                return Err(format!("unterminated label set: {line}"));
            }
            let labels = &series[open + 1..series.len() - 1];
            // Escaped quotes/newlines must keep the sample on one line
            // with balanced quoting.
            if labels.replace("\\\"", "").matches('"').count() % 2 != 0 {
                return Err(format!("unbalanced label quoting: {line}"));
            }
        }
    }
    if families.is_empty() {
        return Err("exposition should not be empty".into());
    }
    Ok(())
}

/// Quotes a string as a JSON string literal (escaping `"`, `\`, and
/// control characters). Public so observability endpoints can build
/// JSON documents by hand without a serialization dependency.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let mut m = MetricsSnapshot::new();
        m.counter("ngm_calls_total", 3)
            .gauge("ngm_ring_occupancy", 2)
            .histogram("ngm_call_cycles", h.snapshot());
        m
    }

    #[test]
    fn prometheus_text_shape() {
        let text = sample().to_prometheus_text();
        assert!(text.contains("# TYPE ngm_calls_total counter"));
        assert!(text.contains("ngm_calls_total 3"));
        assert!(text.contains("# TYPE ngm_ring_occupancy gauge"));
        assert!(text.contains("ngm_ring_occupancy 2"));
        assert!(text.contains("# TYPE ngm_call_cycles summary"));
        assert!(text.contains("ngm_call_cycles{quantile=\"0.5\"}"));
        assert!(text.contains("ngm_call_cycles_count 3"));
        assert!(text.contains("ngm_call_cycles_sum 60"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn json_shape() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ngm_calls_total\":3"));
        assert!(json.contains("\"ngm_ring_occupancy\":2"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"sum\":60"));
        assert!(json.contains("\"mean\":20.0"));
        // Histogram buckets ride along: values 10, 20, 30 land in three
        // distinct buckets, each `[lower,upper,count]`.
        assert!(json.contains("\"buckets\":[[10,10,1],"), "{json}");
        // Balanced braces (no nesting errors).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_snapshot_renders() {
        let m = MetricsSnapshot::new();
        assert_eq!(
            m.to_json(),
            "{\"counters\":{},\"gauges\":{},\"labeled_gauges\":[],\"histograms\":{}}"
        );
        assert_eq!(m.to_prometheus_text(), "");
    }

    #[test]
    fn json_carries_labeled_gauges_structured() {
        let mut m = MetricsSnapshot::new();
        m.labeled_gauge(
            "ngm_build_info",
            &[("version", "0.1.0"), ("features", "faultinject")],
            1,
        );
        let json = m.to_json();
        assert!(
            json.contains(
                "\"labeled_gauges\":[{\"name\":\"ngm_build_info\",\"labels\":{\"version\":\"0.1.0\",\"features\":\"faultinject\"},\"value\":1}]"
            ),
            "labeled gauges must keep structured label sets: {json}"
        );
    }

    #[test]
    fn json_escapes_quote_and_newline_in_label_values() {
        // Satellite: the JSON path must escape label values with the
        // same care as the text path — a `"` or newline in a label value
        // must not break the document.
        let mut m = MetricsSnapshot::new();
        m.labeled_gauge("ngm_shard_calls_served", &[("shard", "a\"b\nc\\d")], 7);
        let json = m.to_json();
        assert!(!json.contains('\n'), "raw newline leaked: {json}");
        assert!(
            json.contains("\"shard\":\"a\\\"b\\u000ac\\\\d\""),
            "label value not JSON-escaped: {json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(
            json.contains("\"value\":7"),
            "the value follows the escapes: {json}"
        );
    }

    #[test]
    fn validator_accepts_own_rendering() {
        let mut m = sample();
        m.labeled_gauge("ngm_shard_calls_served", &[("shard", "0")], 12);
        validate_exposition(&m.to_prometheus_text()).expect("own rendering is valid");
    }

    #[test]
    fn validator_rejects_malformed_text() {
        for bad in [
            // Sample with no announced family.
            "ngm_y_total 3\n",
            // TYPE without HELP.
            "# TYPE ngm_x_total counter\nngm_x_total 3\n",
            // Duplicate series.
            "# HELP ngm_x_total h\n# TYPE ngm_x_total counter\nngm_x_total 3\nngm_x_total 4\n",
            // Non-numeric value.
            "# HELP ngm_x_total h\n# TYPE ngm_x_total counter\nngm_x_total three\n",
            // Empty exposition.
            "",
        ] {
            assert!(
                validate_exposition(bad).is_err(),
                "validator accepted malformed text: {bad:?}"
            );
        }
    }

    #[test]
    fn conventional_families_get_fixed_help() {
        assert!(help_text("ngm_up").contains("metrics endpoint"));
        assert!(help_text("ngm_build_info").contains("always 1"));
        assert!(help_text("process_start_time_seconds").contains("Unix epoch"));
    }

    #[test]
    fn lookup_helpers() {
        let m = sample();
        assert_eq!(m.get_counter("ngm_calls_total"), Some(3));
        assert_eq!(m.get_gauge("ngm_ring_occupancy"), Some(2));
        assert!(m.get_histogram("ngm_call_cycles").is_some());
        assert!(m.get_histogram("absent").is_none());
    }

    #[test]
    fn json_escapes_names() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn labeled_gauges_render_and_count() {
        let mut m = MetricsSnapshot::new();
        m.labeled_gauge(
            "ngm_shard_calls_served",
            &[("shard", "1"), ("state", "serving")],
            4096,
        );
        let text = m.to_prometheus_text();
        assert!(text.contains("# TYPE ngm_shard_calls_served gauge"));
        assert!(
            text.contains("ngm_shard_calls_served{shard=\"1\",state=\"serving\"} 4096"),
            "bad labeled rendering:\n{text}"
        );
        assert_eq!(m.labeled_gauge_count("ngm_shard_calls_served"), 1);
        assert_eq!(m.labeled_gauge_count("ngm_shard_deadlines"), 0);
    }

    #[test]
    fn label_values_with_quote_and_newline_are_escaped() {
        // Satellite: a label value containing `"` and `\n` must render as
        // a single well-formed exposition line.
        let mut m = MetricsSnapshot::new();
        m.labeled_gauge("ngm_shard_calls_served", &[("shard", "a\"b\nc\\d")], 7);
        let text = m.to_prometheus_text();
        let line = text
            .lines()
            .find(|l| !l.starts_with('#'))
            .expect("one sample line");
        assert_eq!(
            line, "ngm_shard_calls_served{shard=\"a\\\"b\\nc\\\\d\"} 7",
            "escaping broke the exposition line"
        );
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            1,
            "raw newline leaked into the rendering:\n{text}"
        );
        // The JSON document stays parseable too: balanced braces, no raw
        // control characters.
        let json = m.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn every_type_line_is_preceded_by_matching_help() {
        let mut m = sample();
        m.labeled_gauge("ngm_shard_calls_served", &[("shard", "x")], 1);
        let text = m.to_prometheus_text();
        let lines: Vec<&str> = text.lines().collect();
        let mut type_lines = 0;
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                type_lines += 1;
                let name = rest.split_whitespace().next().expect("metric name");
                let prev = lines.get(i.wrapping_sub(1)).copied().unwrap_or("");
                assert!(
                    prev.starts_with(&format!("# HELP {name} ")),
                    "TYPE for {name} lacks a HELP line above it:\n{text}"
                );
            }
        }
        assert!(type_lines >= 4, "expected families for all sample metrics");
    }

    #[test]
    fn help_text_follows_the_naming_convention() {
        assert_eq!(
            help_text("ngm_calls_total"),
            "Cumulative count of calls events."
        );
        assert_eq!(
            help_text("ngm_call_cycles"),
            "Distribution of call durations in TSC cycles."
        );
        assert_eq!(
            help_text("ngm_heap_live_bytes"),
            "Gauge of heap live in bytes."
        );
        assert_eq!(help_text("ngm_ring_occupancy"), "Gauge of ring occupancy.");
        // No backslash or newline may ever reach a HELP line.
        for name in ["ngm_x_total", "ngm_y_cycles", "plain"] {
            let h = help_text(name);
            assert!(!h.contains('\n') && !h.contains('\\'));
        }
    }

    #[test]
    fn escape_label_value_rules() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
    }
}
