//! The repository's benchmark. One invocation runs one workload:
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload xalanc_sync --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It prints a host-shape block and every metric by name, and as the
//! last line of standard output one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. A failed correctness check prints
//! no metrics and exits non-zero. README.md has the tables.

mod adapter;
mod catalog;
mod conns;
mod probes;
mod replay;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use adapter::{SimModel, Tier};
use replay::Trace;
use spans::{Recorder, Tracer};
use stats::{median, quartiles};
use workloads::{ChurnInline, ConnsCompletion, Workload, XalancNgm};

/// Times the whole set-up (generate, start the tier, warm up) is
/// repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// Paired rounds run and discarded at the end of each set-up.
const WARMUP_ROUNDS: usize = 2;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 6;

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name`; each metric is set once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} is not a finite number");
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "{name} set twice");
    }
}

struct Args {
    workload: &'static str,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: ngm-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        catalog::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = catalog::WORKLOADS
                    .into_iter()
                    .find(|w| *w == v)
                    .ok_or_else(|| format!("unknown workload {v:?}"))?;
            }
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Where the run happened; printed with every result.
struct Host {
    nproc: usize,
    client_pinned: bool,
    /// Core `CorePlacement::Auto` gives a one-shard tier, if any.
    service_core: Option<usize>,
}

impl Host {
    fn pin_client() -> Host {
        // Counted before pinning: afterwards the client sees one core.
        let nproc = adapter::available_cores();
        Host {
            nproc,
            client_pinned: sys::pin_client(),
            service_core: (nproc > 1).then(|| nproc - 1),
        }
    }
}

/// Everything one run reports.
#[derive(Default)]
struct Report {
    end_to_end: Values,
    per_layer: Values,
    attempted: u64,
    failed: u64,
    /// Human-readable lines printed above the metrics.
    notes: Vec<String>,
    /// Core the workload's own service thread reported.
    service_pinned: Option<Option<usize>>,
    rounds: usize,
    default_seed: bool,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::pin_client();
    let result = if args.workload == "table3_sim" {
        run_sim(&args, &host)
    } else {
        run_runtime(&args, &host)
    };
    match result {
        Ok(report) => {
            // After the workload's tier is down: never a second service
            // thread beside it.
            let xcore_ns = probes::xcore_roundtrip_ns(host.service_core);
            print_report(&args, &host, xcore_ns, report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: correctness check failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

fn default_seed(workload: &str) -> u64 {
    match workload {
        "churn_inline" => adapter::churn_default_seed(),
        "conns_completion" => conns::DEFAULT_SEED,
        _ => adapter::xalanc_default_seed(),
    }
}

fn set_up(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "xalanc_sync" => Box::new(XalancNgm::setup(seed, Tier::Default)),
        "xalanc_magazine" => Box::new(XalancNgm::setup(seed, Tier::Magazine)),
        "conns_completion" => Box::new(ConnsCompletion::setup(seed)),
        "churn_inline" => Box::new(ChurnInline::setup(seed)),
        other => unreachable!("{other} is not a runtime workload"),
    }
}

/// Checks the generated input against the guarded constants when the
/// seed is the generator's own.
fn guard_input(
    workload: &str,
    default_seed: bool,
    events: u64,
    fingerprint: u64,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let want = catalog::expected(workload);
    if !default_seed {
        notes.push(format!(
            "input: {events} events, fingerprint {fingerprint:#018x} (non-default seed, drift guard skipped)"
        ));
        return Ok(());
    }
    if (events, fingerprint) != (want.events, want.fingerprint) {
        return Err(format!(
            "input drifted: generated {events} events with fingerprint {fingerprint:#018x}, \
             the benchmark was defined on {} events with fingerprint {:#018x}",
            want.events, want.fingerprint
        ));
    }
    notes.push(format!(
        "input: {events} events, fingerprint {fingerprint:#018x} (matches the guarded default-seed input)"
    ));
    Ok(())
}

fn run_runtime(args: &Args, host: &Host) -> Result<Report, String> {
    let seed = args.seed.unwrap_or_else(|| default_seed(args.workload));
    let mut report = Report {
        default_seed: seed == default_seed(args.workload),
        ..Report::default()
    };

    // Set-up, several times over: generate, start the tier, warm up.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.finish()?;
        }
        let t = Instant::now();
        let mut w = set_up(args.workload, seed);
        for r in 0..WARMUP_ROUNDS {
            w.round(r % 2 == 0)?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
        current = Some(w);
    }
    let mut w = current.expect("SETUPS > 0");
    let input = w.input();
    guard_input(
        args.workload,
        report.default_seed,
        input.events,
        input.fingerprint,
        &mut report.notes,
    )?;

    // The traced pass runs first, on a tier that has seen exactly the
    // warm-up rounds, so its exact counts repeat from run to run however
    // many measured rounds the host then fits into the window.
    let traced = if args.trace {
        Some(w.traced_pass()?)
    } else {
        None
    };

    // The measured window: paired rounds, order alternating.
    let mut samples = Vec::new();
    let failures_before = w.failures();
    let window = Instant::now();
    while samples.len() < MIN_ROUNDS || window.elapsed().as_secs_f64() < args.seconds {
        samples.push(w.round(samples.len() % 2 == 0)?);
    }
    // `attempted` and `failed` both cover the measured rounds and nothing
    // else: not the warm-up, the traced pass or the memory pass.
    report.attempted = samples.iter().map(|s| s.ops).sum();
    report.failed = w
        .failures()
        .failed_ops_since(&failures_before, samples.iter().map(|s| s.errors).sum());
    let mem = w.mem_at_peak()?;
    let readback = w.readback();
    report.service_pinned = readback.as_ref().map(|rb| rb.service_pinned_core);
    let events = input.events as f64;
    let finish = w.finish()?;

    let ratios: Vec<f64> = samples.iter().map(|s| s.prog_wall / s.ref_wall).collect();
    let (q1, q2, q3) = quartiles(&ratios);
    let prog_wall: f64 = samples.iter().map(|s| s.prog_wall).sum();
    let prog_cpu: f64 = samples.iter().map(|s| s.prog_cpu).sum();
    report.rounds = samples.len();
    report.notes.push(format!(
        "slowdown_vs_system: median {q2:.4} of {} per-round ratios, quartiles {q1:.4} .. {q3:.4}",
        ratios.len()
    ));
    let idle_turns: u64 = samples.iter().map(|s| s.idle_turns).sum();
    if args.workload == "conns_completion" {
        report.notes.push(format!(
            "completion executor: {idle_turns} idle turns in the measured rounds (each pumps the \
             queue after 10 ms without a wake: the program's orphaned-ticket stall, or the host \
             holding the service core that long)"
        ));
    }

    let e = &mut report.end_to_end;
    e.set("setup_s", median(&setup_s));
    e.set("slowdown_vs_system", q2);
    e.set("cpu_cores_used", prog_cpu / prog_wall);
    e.set(
        "mem_overhead_at_peak",
        mem.usage.committed_bytes as f64 / mem.requested as f64,
    );
    if !args.trace {
        return Ok(report);
    }

    // Per-layer: what the traced pass, the tier's own accessors and the
    // probes say.
    let (rec, counts) = traced.expect("traced pass ran");
    let ref_median = median(&samples.iter().map(|s| s.ref_wall).collect::<Vec<_>>());
    let prog_median = median(&samples.iter().map(|s| s.prog_wall).collect::<Vec<_>>());
    let p = &mut report.per_layer;
    p.set(
        "workloads.gen_events_per_s",
        input.events as f64 / input.gen_seconds,
    );
    p.set("workloads.alloc_op_share", input.alloc_op_share);
    p.set("heap.segments_at_peak", mem.usage.segments as f64);
    p.set("heap.fragmentation_at_peak", mem.usage.fragmentation);
    p.set("bench.ref_ns_per_event", ref_median * 1e9 / events);
    p.set("bench.pass_ns_per_event", prog_median * 1e9 / events);
    p.set("bench.ratio_iqr", q3 - q1);
    p.set("bench.rounds", samples.len() as f64);
    p.set("core.sq_idle_turns", idle_turns as f64);
    p.set(
        "bench.failed_ops_share",
        report.failed as f64 / report.attempted as f64,
    );
    span_metrics(&rec, prog_median, p, &mut report.notes);
    write_spans(args.workload, &rec, &mut report.notes)?;
    if counts.mallocs > 0 && finish.tier.is_some() {
        p.set(
            "core.roundtrips_per_alloc",
            counts.calls as f64 / counts.mallocs as f64,
        );
        p.set(
            "core.posts_per_free",
            counts.posts as f64 / counts.frees as f64,
        );
    }
    if counts.submits > 0 {
        p.set(
            "core.wouldblock_share",
            counts.wouldblocks as f64 / counts.submits as f64,
        );
    }
    if let Some(end) = &finish.tier {
        p.set("core.batch_refills", end.batch_refills as f64);
        p.set("core.magazine_returned", end.magazine_returned as f64);
        p.set("core.fallback_allocs", end.fallback_allocs as f64);
    }
    if let Some(rb) = &readback {
        const PHASES: [&str; 5] = [
            "offload.phase_queue_p50_cycles",
            "offload.phase_claim_p50_cycles",
            "offload.phase_serve_p50_cycles",
            "offload.phase_publish_p50_cycles",
            "offload.phase_observe_p50_cycles",
        ];
        for (name, v) in PHASES.into_iter().zip(rb.phase_p50_cycles) {
            p.set(name, v as f64);
        }
        p.set("offload.call_p50_cycles", rb.call_cycles.0 as f64);
        p.set("offload.call_p99_cycles", rb.call_cycles.1 as f64);
        p.set("offload.refill_p50_cycles", rb.refill_p50_cycles as f64);
        p.set("offload.service_idle_fraction", rb.service_idle_fraction);
        p.set("offload.post_full_retries", rb.post_full_retries as f64);
        p.set("offload.retry_total", rb.retry_total as f64);
        p.set("offload.deadlines", rb.deadlines as f64);
        p.set("offload.wait_transitions", rb.wait_transitions as f64);
        p.set("core.submit_depth_p50", rb.submit_depth_p50 as f64);
    }
    probes::run_all(host.service_core, p);
    Ok(report)
}

/// Derives the percentile metrics and each span name's self time from
/// the traced pass.
fn span_metrics(rec: &Recorder, untraced_wall: f64, p: &mut Values, notes: &mut Vec<String>) {
    let summary = rec.summary();
    notes.push(format!(
        "{:<28} {:>9} {:>12} {:>12} {:>9} {:>9} {:>16}",
        "span", "count", "total ms", "self ms", "p50 ns", "p99 ns", "top pct: ns"
    ));
    for (name, t) in &summary {
        let tail = t.tail;
        notes.push(format!(
            "{name:<28} {:>9} {:>12.3} {:>12.3} {:>9} {:>9} {:>8.3}%: {}",
            t.count,
            t.total_ns / 1e6,
            t.self_ns / 1e6,
            tail.p50,
            tail.p99,
            tail.top.0,
            tail.top.1
        ));
    }
    for (span, metrics) in [
        (
            "core.alloc",
            &[
                "core.alloc_call_p50_ns",
                "core.alloc_call_p99_ns",
                "core.alloc_call_p999_ns",
            ][..],
        ),
        (
            "core.dealloc",
            &["core.dealloc_call_p50_ns", "core.dealloc_call_p99_ns"][..],
        ),
        (
            "heap.allocate",
            &["heap.alloc_p50_ns", "heap.alloc_p99_ns"][..],
        ),
        (
            "heap.deallocate",
            &["heap.dealloc_p50_ns", "heap.dealloc_p99_ns"][..],
        ),
        ("core.sq_submit", &["core.sq_submit_p50_ns"][..]),
        (
            "core.future_wait",
            &["core.future_wait_p50_ns", "core.future_wait_p99_ns"][..],
        ),
        ("core.sq_free", &["core.sq_free_p50_ns"][..]),
    ] {
        let Some(tail) = summary.get(span).map(|t| t.tail) else {
            continue;
        };
        for (name, v) in metrics.iter().zip([tail.p50, tail.p99, tail.p999]) {
            p.set(name, v as f64);
        }
    }
    let root = summary["replay.pass"];
    p.set("bench.replay_self_share", root.self_ns / root.total_ns);
    p.set(
        "bench.trace_overhead_share",
        root.total_ns / 1e9 / untraced_wall - 1.0,
    );
    p.set("bench.spans_recorded", rec.len() as f64);
}

fn write_spans(workload: &str, rec: &Recorder, notes: &mut Vec<String>) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.jsonl"));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!(
        "spans: {} written to {}",
        rec.len(),
        path.display()
    ));
    Ok(())
}

/// `table3_sim`: the paper's Table 3 on the simulator. Everything it
/// reports but host time is simulated and repeats exactly for a seed.
fn run_sim(args: &Args, host: &Host) -> Result<Report, String> {
    let seed = args.seed.unwrap_or_else(adapter::xalanc_default_seed);
    let mut report = Report {
        default_seed: seed == adapter::xalanc_default_seed(),
        rounds: 1,
        ..Report::default()
    };
    // At most one span per model run and one per generation.
    let mut rec = Recorder::with_capacity(8);
    rec.open_root("replay.pass");

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut generated = None;
    let mut gen_seconds = 0.0;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = rec.now();
        let (events, warmup) = adapter::xalanc_full_events(seed);
        rec.close("workloads.generate", s);
        gen_seconds = t.elapsed().as_secs_f64();
        generated = Some((Trace::new(events), warmup));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (trace, warmup) = generated.expect("SETUPS > 0");
    guard_input(
        args.workload,
        report.default_seed,
        trace.events.len() as u64,
        trace.fingerprint,
        &mut report.notes,
    )?;

    let mut run = |model: SimModel| {
        let s = rec.now();
        let r = model.run(&trace.events, warmup);
        rec.close(model.span(), s);
        r
    };
    let (wall0, cpu0) = (Instant::now(), sys::process_cpu_seconds());
    let mimalloc = run(SimModel::Mimalloc);
    let again = run(SimModel::Mimalloc);
    let ngm = run(SimModel::NgmDetailed);
    let wall = wall0.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_seconds() - cpu0;
    if mimalloc != again {
        return Err("two runs of the Mimalloc model on one stream gave different counters".into());
    }
    let leaked = mimalloc.leaked + ngm.leaked;
    if leaked != 0 {
        return Err(format!("the models leaked {leaked} simulated objects"));
    }
    report.attempted = trace.mallocs + trace.frees;
    if report.default_seed {
        let now = (mimalloc.wall_cycles, ngm.wall_cycles);
        let was = catalog::SIM_BASELINE_WALL_CYCLES;
        report.notes.push(format!(
            "simulated wall cycles: mimalloc {}, ngm {} ({})",
            now.0,
            now.1,
            if now == was {
                "bit-identical to the first baseline".to_string()
            } else {
                format!(
                    "DIFFER from the first baseline {} / {}: the simulator or a model changed",
                    was.0, was.1
                )
            }
        ));
    }
    report.notes.push(
        "simulated cycles and misses come from the repository's A72-like model, which is \
         unvalidated against silicon: no error figure is given"
            .into(),
    );

    let e = &mut report.end_to_end;
    e.set("setup_s", median(&setup_s));
    // The reference here is the simulated Mimalloc, the paper's Table 3
    // baseline; the paper measured 1/1.0451 = 0.957.
    e.set(
        "slowdown_vs_system",
        ngm.wall_cycles as f64 / mimalloc.wall_cycles as f64,
    );
    e.set("cpu_cores_used", cpu / wall);
    e.set(
        "mem_overhead_at_peak",
        (trace.peak_live_bytes + ngm.meta_bytes) as f64 / trace.peak_live_bytes as f64,
    );
    if !args.trace {
        return Ok(report);
    }

    let paper = run(SimModel::NgmPaperSync);
    if paper.leaked != 0 {
        return Err(format!(
            "the §4.1 model leaked {} simulated objects",
            paper.leaked
        ));
    }
    rec.close_root();
    let speedup =
        |r: &adapter::SimRun| (mimalloc.wall_cycles as f64 / r.wall_cycles as f64 - 1.0) * 100.0;
    let p = &mut report.per_layer;
    p.set(
        "workloads.gen_events_per_s",
        trace.events.len() as f64 / gen_seconds,
    );
    p.set("workloads.alloc_op_share", trace.alloc_op_share());
    p.set(
        "sim.host_ns_per_event",
        wall * 1e9 / (3 * trace.events.len()) as f64,
    );
    p.set("simalloc.sim_speedup_pct", speedup(&ngm));
    p.set("simalloc.speedup_paper_sync_pct", speedup(&paper));
    p.set("simalloc.wall_cycles_mimalloc", mimalloc.wall_cycles as f64);
    p.set("simalloc.wall_cycles_ngm", ngm.wall_cycles as f64);
    p.set(
        "simalloc.wall_cycles_ngm_paper_sync",
        paper.wall_cycles as f64,
    );
    p.set(
        "simalloc.app_dtlb_load_mpki_mimalloc",
        mimalloc.app.dtlb_load_mpki(),
    );
    p.set("simalloc.app_dtlb_load_mpki_ngm", ngm.app.dtlb_load_mpki());
    p.set(
        "simalloc.app_llc_load_mpki_mimalloc",
        mimalloc.app.llc_load_mpki(),
    );
    p.set("simalloc.app_llc_load_mpki_ngm", ngm.app.llc_load_mpki());
    p.set(
        "simalloc.app_llc_store_misses_mimalloc",
        mimalloc.app.llc_store_misses as f64,
    );
    p.set(
        "simalloc.app_llc_store_misses_ngm",
        ngm.app.llc_store_misses as f64,
    );
    p.set(
        "simalloc.service_llc_load_misses_ngm",
        ngm.service.llc_load_misses as f64,
    );
    p.set("bench.rounds", 1.0);
    p.set("bench.spans_recorded", rec.len() as f64);
    let summary = rec.summary();
    for (name, t) in &summary {
        report.notes.push(format!(
            "span {name:<32} x{:<2} total {:>10.3} ms",
            t.count,
            t.total_ns / 1e6
        ));
    }
    write_spans(args.workload, &rec, &mut report.notes)?;
    probes::run_all(host.service_core, p);
    Ok(report)
}

fn print_report(args: &Args, host: &Host, xcore_ns: f64, mut report: Report) {
    let service = match report.service_pinned {
        Some(Some(core)) => core.to_string(),
        Some(None) => "none".into(),
        None => "n/a".into(),
    };
    // A ratio taken without two cores, or with either thread floating,
    // measures time-slicing rather than offload.
    let degraded =
        host.nproc < 2 || !host.client_pinned || matches!(report.service_pinned, Some(None));
    println!(
        "benchmark: {} ({})",
        args.workload,
        if args.trace {
            "traced run, per-layer metrics"
        } else {
            "untraced run, end-to-end metrics"
        }
    );
    println!(
        "host: nproc {}, client pin requested core {} achieved {}, service pinned_core {}, host_degraded: {}",
        host.nproc,
        sys::CLIENT_CORE,
        host.client_pinned,
        service,
        degraded
    );
    println!(
        "host: cross-core no-op round trip p50 {xcore_ns:.0} ns in this run (moves between runs on a \
         shared host; xalanc_sync and conns_completion move with it)"
    );
    println!(
        "host: {}, git commit {}, seed {}{}, rounds {}",
        sys::rustc_version(),
        sys::git_commit(),
        args.seed.map_or("default".to_string(), |s| s.to_string()),
        if report.default_seed {
            " (default)"
        } else {
            " (non-default)"
        },
        report.rounds
    );
    for n in &report.notes {
        println!("{n}");
    }
    println!(
        "operations: attempted {}, failed {}",
        report.attempted, report.failed
    );

    if args.trace {
        let p = &mut report.per_layer;
        let core = report.service_pinned.flatten();
        p.set(
            "offload.service_pinned_core",
            core.map_or(-1.0, |c| c as f64),
        );
    }
    let (catalog, values): (&[(&str, &str)], &Values) = if args.trace {
        (&catalog::PER_LAYER, &report.per_layer)
    } else {
        (&catalog::END_TO_END, &report.end_to_end)
    };
    for name in values.0.keys() {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "{name} is measured but not in the catalog"
        );
    }
    let mut json = Vec::with_capacity(catalog.len());
    for (name, unit) in catalog {
        // A per-layer metric nobody set belongs to a layer this
        // workload's path never reaches: it reads 0.
        let value = match values.0.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("{name:<44} {value:>18.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
}
