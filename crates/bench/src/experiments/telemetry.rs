//! Telemetry exporter demo: runs a short mixed workload on the real
//! runtime under the paper's per-call handshake (`with_batch(1, 1)`, so
//! the call and phase series carry every allocation) with event tracing
//! enabled, then renders everything the
//! telemetry layer can produce — the Prometheus text exposition, the
//! JSON snapshot, and the drained event trace converted back into a
//! replayable workload stream.

use ngm_core::NgmConfig;

use crate::live::{self, Load};
use crate::trace::convert;

/// Runs the demo workload and renders all three export formats.
pub fn run(ops: u32) -> String {
    let ngm = NgmConfig::new()
        .with_batch(1, 1)
        .with_trace_capacity(8192)
        .build()
        .expect("valid config");

    let load = Load {
        clients: 2,
        per_thread: ops.max(1) as usize,
        live_cap: 32,
        size: live::scattered,
    };
    live::drive(&ngm, load, live::must_alloc, live::JOIN_POLL, || ());

    // Let the service publish its heap stats (idle-round refresh).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while ngm.live_heap_stats().total_allocs == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    let metrics = ngm.metrics();
    let drain = ngm.telemetry().drain_trace();
    let conv = convert(&drain.events);

    format!(
        "Telemetry: metrics export and event trace (with_batch(1, 1), clock: {})\n\
         =====================================================\n\n\
         --- Prometheus text exposition ---\n{}\n\
         --- JSON snapshot ---\n{}\n\n\
         --- Event trace ---\n\
         captured {} events ({} dropped on ring overflow) -> {} replayable \
         workload events ({} unmatched frees, {} trailing frees)\n",
        ngm_telemetry::clock::source(),
        metrics.to_prometheus_text(),
        metrics.to_json(),
        drain.events.len(),
        drain.dropped_total,
        conv.events.len(),
        conv.unmatched_frees,
        conv.trailing_frees,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_renders_all_sections() {
        let s = run(200);
        assert!(s.contains("ngm_call_cycles"), "prometheus section: {s}");
        assert!(s.contains("\"histograms\""), "json section: {s}");
        assert!(s.contains("replayable"), "trace section: {s}");
    }
}
