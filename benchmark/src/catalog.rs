//! Names and units of everything the benchmark reports, in print order,
//! and the input fingerprints it guards. `BENCHMARK.json` at the root of
//! the repository lists the same metric names; a traced run prints every
//! per-layer metric, and one a workload's path never reaches reads 0.

/// The workloads, by name.
pub const WORKLOADS: [&str; 5] = [
    "xalanc_sync",
    "xalanc_magazine",
    "conns_completion",
    "churn_inline",
    "table3_sim",
];

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("slowdown_vs_system", "x"),
    ("cpu_cores_used", "cores"),
    ("mem_overhead_at_peak", "x"),
];

/// Per-layer metrics (`--trace 1`): name, unit. The prefix is the crate
/// the number belongs to; `bench.` is the benchmark itself.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("workloads.gen_events_per_s", "1/s"),
    ("workloads.alloc_op_share", "share"),
    // heap: timed Heap::allocate / deallocate in the traced pass, probes,
    // and the reading at the trace's peak.
    ("heap.alloc_p50_ns", "ns"),
    ("heap.alloc_p99_ns", "ns"),
    ("heap.dealloc_p50_ns", "ns"),
    ("heap.dealloc_p99_ns", "ns"),
    ("heap.pair_64b_ns", "ns"),
    ("heap.pair_1k_ns", "ns"),
    ("heap.pair_8k_ns", "ns"),
    ("heap.batch32_ns_per_block", "ns"),
    ("heap.fresh_segment_us", "us"),
    ("heap.large_pair_us", "us"),
    ("heap.segments_at_peak", "count"),
    ("heap.fragmentation_at_peak", "share"),
    // offload: probes, then the tier's own histograms and counters read
    // back through public accessors.
    ("offload.ring_push_pop_ns", "ns"),
    ("offload.ring_xcore_ns_per_msg", "ns"),
    ("offload.noop_roundtrip_p50_ns", "ns"),
    ("offload.noop_roundtrip_p99_ns", "ns"),
    ("offload.noop_roundtrip_p50_cycles", "cycles"),
    ("offload.noop_post_ns", "ns"),
    ("offload.phase_queue_p50_cycles", "cycles"),
    ("offload.phase_claim_p50_cycles", "cycles"),
    ("offload.phase_serve_p50_cycles", "cycles"),
    ("offload.phase_publish_p50_cycles", "cycles"),
    ("offload.phase_observe_p50_cycles", "cycles"),
    ("offload.call_p50_cycles", "cycles"),
    ("offload.call_p99_cycles", "cycles"),
    ("offload.refill_p50_cycles", "cycles"),
    ("offload.service_idle_fraction", "share"),
    ("offload.post_full_retries", "count"),
    ("offload.retry_total", "count"),
    ("offload.deadlines", "count"),
    ("offload.wait_transitions", "count"),
    ("offload.service_pinned_core", "core"),
    // core: timed NgmHandle::alloc / dealloc and SubmissionQueue calls in
    // the traced pass, exact counts over that pass, probes.
    ("core.alloc_call_p50_ns", "ns"),
    ("core.alloc_call_p99_ns", "ns"),
    ("core.alloc_call_p999_ns", "ns"),
    ("core.dealloc_call_p50_ns", "ns"),
    ("core.dealloc_call_p99_ns", "ns"),
    ("core.roundtrips_per_alloc", "ratio"),
    ("core.posts_per_free", "ratio"),
    ("core.batch_refills", "count"),
    ("core.magazine_returned", "count"),
    ("core.fallback_allocs", "count"),
    ("core.magazine_pair_ns", "ns"),
    ("core.tier_start_ms", "ms"),
    ("core.tier_shutdown_ms", "ms"),
    ("core.sq_submit_p50_ns", "ns"),
    ("core.future_wait_p50_ns", "ns"),
    ("core.future_wait_p99_ns", "ns"),
    ("core.sq_free_p50_ns", "ns"),
    ("core.wouldblock_share", "share"),
    ("core.submit_depth_p50", "count"),
    ("core.sq_idle_turns", "count"),
    ("telemetry.hist_record_ns", "ns"),
    ("telemetry.metrics_scrape_us", "us"),
    // sim / simalloc: host time per simulated event, then simulated
    // counts, which repeat exactly.
    ("sim.host_ns_per_event", "ns"),
    ("simalloc.sim_speedup_pct", "%"),
    ("simalloc.speedup_paper_sync_pct", "%"),
    ("simalloc.wall_cycles_mimalloc", "cycles"),
    ("simalloc.wall_cycles_ngm", "cycles"),
    ("simalloc.wall_cycles_ngm_paper_sync", "cycles"),
    ("simalloc.app_dtlb_load_mpki_mimalloc", "mpki"),
    ("simalloc.app_dtlb_load_mpki_ngm", "mpki"),
    ("simalloc.app_llc_load_mpki_mimalloc", "mpki"),
    ("simalloc.app_llc_load_mpki_ngm", "mpki"),
    ("simalloc.app_llc_store_misses_mimalloc", "count"),
    ("simalloc.app_llc_store_misses_ngm", "count"),
    ("simalloc.service_llc_load_misses_ngm", "count"),
    // bench: the benchmark's own raw numbers. The two ns/event figures
    // drift with the host and are informational only.
    ("bench.ref_ns_per_event", "ns"),
    ("bench.pass_ns_per_event", "ns"),
    ("bench.ratio_iqr", "x"),
    ("bench.rounds", "count"),
    ("bench.trace_overhead_share", "share"),
    ("bench.spans_recorded", "count"),
    ("bench.replay_self_share", "share"),
    ("bench.failed_ops_share", "share"),
];

/// What a workload's generator must produce for its default seed, so an
/// edit to `crates/workloads` cannot silently change what is measured.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Events (connection records for `conns_completion`).
    pub events: u64,
    /// FNV-1a fingerprint of the stream.
    pub fingerprint: u64,
}

/// The guarded inputs, by workload.
pub fn expected(workload: &str) -> Expected {
    match workload {
        "xalanc_sync" | "xalanc_magazine" => Expected {
            events: 661_703,
            fingerprint: 0x3b55_1b53_8172_f757,
        },
        "conns_completion" => Expected {
            events: 120_000,
            fingerprint: 0xde96_c22a_080e_68d3,
        },
        "churn_inline" => Expected {
            events: 1_654_899,
            fingerprint: 0xe909_e88b_419f_750b,
        },
        "table3_sim" => Expected {
            events: 4_061_166,
            fingerprint: 0x6684_4272_8dd1_1b62,
        },
        other => unreachable!("unknown workload {other}"),
    }
}

/// Simulated wall cycles of the Mimalloc and the detailed NGM model on the
/// default-seed `table3_sim` stream when the benchmark was defined.
/// Simulated time repeats exactly, so a run that reads anything else is
/// running a changed simulator or model: it says so, it does not fail.
pub const SIM_BASELINE_WALL_CYCLES: (u64, u64) = (439_892_889, 510_486_089);
