//! Plain-text table rendering for the repro harness.

use ngm_telemetry::clock::cycles_to_ns;
use ngm_telemetry::hist::HistogramSnapshot;

/// A simple aligned table: a header row plus data rows.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with space-padded, right-aligned data columns (first
    /// column left-aligned).
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[0]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Renders named latency-histogram snapshots as a count/percentile table.
/// Histograms record TSC cycles ([`ngm_telemetry::clock::cycles_now`]);
/// each percentile is shown in cycles and, via the calibrated
/// cycles-per-ns ratio, in wall-clock nanoseconds.
pub fn latency_table(rows: &[(&str, &HistogramSnapshot)]) -> String {
    let mut t = Table::new(&[
        "op kind", "count", "p50", "p90", "p99", "max", "p50 ns", "p99 ns",
    ]);
    for (name, h) in rows {
        t.row(vec![
            (*name).to_string(),
            h.count().to_string(),
            h.p50().to_string(),
            h.p90().to_string(),
            h.p99().to_string(),
            h.max().to_string(),
            cycles_to_ns(h.p50()).to_string(),
            cycles_to_ns(h.p99()).to_string(),
        ]);
    }
    t.render()
}

/// The middle value of `v` (the upper middle one of an even count).
/// Panics if `v` is empty or holds a value that does not compare (a NaN).
pub fn median<T: PartialOrd>(mut v: Vec<T>) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).expect("comparable samples"));
    v.swap_remove(v.len() / 2)
}

/// Formats a count in the paper's scientific notation (e.g. `1.177E+12`).
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    format!("{mant:.3}E{exp:+03}")
}

/// Formats a ratio as `1.72x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats an MPKI value with three decimals, as in Table 1.
pub fn mpki(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["Allocator", "cycles"]);
        t.row(vec!["PTMalloc2".into(), "1.177E+12".into()]);
        t.row(vec!["Mimalloc".into(), "6.959E+11".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Allocator"));
        assert!(lines[2].ends_with("1.177E+12"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_width_panics() {
        Table::new(&["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn sci_matches_paper_style() {
        assert_eq!(sci(1.177e12), "1.177E+12");
        assert_eq!(sci(0.317), "3.170E-01");
        assert_eq!(sci(0.0), "0");
    }

    #[test]
    fn ratio_and_mpki_format() {
        assert_eq!(ratio(1.7233), "1.72x");
        assert_eq!(mpki(0.3171), "0.317");
    }

    #[test]
    fn latency_table_renders_percentiles() {
        let h = ngm_telemetry::hist::LatencyHistogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let s = latency_table(&[("malloc call", &snap)]);
        assert!(s.contains("malloc call"));
        assert!(s.contains("p99"));
        assert!(s.contains("p50 ns"), "both units are shown: {s}");
        assert!(s.lines().count() == 3, "header, rule, one row: {s}");
    }
}
