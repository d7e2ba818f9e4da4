//! Table 1/2-shaped rendering of PMU readings.
//!
//! A [`PmuReport`] is a set of labeled columns (one per allocator, thread
//! count, or core role) over the six-event row set of the paper's
//! Table 1. Every column header carries its backend label (`/hw` or
//! `/sw`), so a report mixing hardware counters with software fallbacks
//! stays honest about which is which.

use crate::events::PmuEvent;
use crate::session::PmuReading;

/// One labeled column of readings.
#[derive(Debug, Clone)]
pub struct PmuColumn {
    /// Column name (allocator, thread count, core role, …).
    pub name: String,
    /// The measurement.
    pub reading: PmuReading,
}

/// A renderable set of PMU readings.
#[derive(Debug, Clone)]
pub struct PmuReport {
    /// Report heading.
    pub title: String,
    /// Columns in insertion order.
    pub cols: Vec<PmuColumn>,
}

impl PmuReport {
    /// An empty report.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        PmuReport {
            title: title.into(),
            cols: Vec::new(),
        }
    }

    /// Appends a column.
    pub fn push(&mut self, name: impl Into<String>, reading: PmuReading) -> &mut Self {
        self.cols.push(PmuColumn {
            name: name.into(),
            reading,
        });
        self
    }

    /// The MPKI row set of Table 1 (miss events only).
    const MPKI_EVENTS: [PmuEvent; 4] = [
        PmuEvent::LlcLoadMisses,
        PmuEvent::LlcStoreMisses,
        PmuEvent::DtlbLoadMisses,
        PmuEvent::DtlbStoreMisses,
    ];

    /// Renders the report: absolute counts, MPKI rows, and a footnote for
    /// multiplexed or partially-unavailable columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut header = vec!["metric".to_string()];
        header.extend(
            self.cols
                .iter()
                .map(|c| format!("{}/{}", c.name, c.reading.backend.label())),
        );
        let mut rows: Vec<Vec<String>> = Vec::new();
        for e in PmuEvent::ALL {
            let mut row = vec![e.name().to_string()];
            row.extend(self.cols.iter().map(|c| match c.reading.get(e) {
                Some(v) => v.to_string(),
                None => "n/a".to_string(),
            }));
            rows.push(row);
        }
        for e in Self::MPKI_EVENTS {
            let mut row = vec![format!("{}-MPKI", mpki_stem(e))];
            row.extend(self.cols.iter().map(|c| match c.reading.mpki(e) {
                Some(v) => format!("{v:.3}"),
                None => "n/a".to_string(),
            }));
            rows.push(row);
        }
        let mut out = format!("{}\n{}", self.title, align(&header, &rows));
        for c in &self.cols {
            if c.reading.multiplexed() {
                out.push_str(&format!(
                    "note: {} was multiplexed ({} of {} ns on the PMU); counts are scaled estimates\n",
                    c.name, c.reading.time_running_ns, c.reading.time_enabled_ns
                ));
            }
        }
        out
    }
}

/// The paper spells MPKI rows with the `-misses` suffix dropped
/// (`dTLB-load-MPKI`).
fn mpki_stem(e: PmuEvent) -> &'static str {
    match e {
        PmuEvent::LlcLoadMisses => "LLC-load",
        PmuEvent::LlcStoreMisses => "LLC-store",
        PmuEvent::DtlbLoadMisses => "dTLB-load",
        PmuEvent::DtlbStoreMisses => "dTLB-store",
        PmuEvent::Cycles | PmuEvent::Instructions => "",
    }
}

/// Right-aligns data columns under their headers (first column left).
fn align(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.chars().count());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
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
    let mut out = fmt_row(header);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{BackendKind, PmuSession};

    fn fed_reading() -> PmuReading {
        let mut s = PmuSession::software();
        s.feed(PmuEvent::Instructions, 10_000);
        s.feed(PmuEvent::LlcLoadMisses, 25);
        s.feed(PmuEvent::DtlbStoreMisses, 5);
        s.start().stop()
    }

    #[test]
    fn forced_software_report_has_full_table1_shape() {
        // Satellite: a forced-SoftwareCounters session must produce a
        // complete Table 1-shaped report.
        let mut rep = PmuReport::new("Table 1 (software fallback)");
        rep.push("PTMalloc2", fed_reading());
        let s = rep.render();
        for e in PmuEvent::ALL {
            assert!(s.contains(e.name()), "row {} missing:\n{s}", e.name());
        }
        for stem in [
            "LLC-load-MPKI",
            "LLC-store-MPKI",
            "dTLB-load-MPKI",
            "dTLB-store-MPKI",
        ] {
            assert!(s.contains(stem), "row {stem} missing:\n{s}");
        }
        assert!(s.contains("PTMalloc2/sw"), "backend label missing:\n{s}");
        assert!(!s.contains("n/a"), "software reading is complete:\n{s}");
        assert!(s.contains("2.500"), "LLC-load MPKI = 25 * 1000 / 10000");
    }

    #[test]
    fn unmeasurable_events_render_na() {
        let mut r = PmuReading::empty_software();
        r.counts[PmuEvent::LlcStoreMisses.index()] = None;
        let mut rep = PmuReport::new("t");
        rep.push("x", r);
        assert!(rep.render().contains("n/a"));
    }

    #[test]
    fn multiplexed_column_gets_footnote() {
        let r = PmuReading {
            backend: BackendKind::Hardware,
            counts: [Some(1); 6],
            time_enabled_ns: 100,
            time_running_ns: 40,
        };
        let mut rep = PmuReport::new("t");
        rep.push("x", r);
        let s = rep.render();
        assert!(s.contains("multiplexed"));
        assert!(s.contains("x/hw"));
    }
}
