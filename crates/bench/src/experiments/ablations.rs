//! Ablations over the design choices DESIGN.md calls out.
//!
//! * **A — wait strategy** was retired: paired against the shipped
//!   spin-then-yield ladder, pure spin and spin-then-sleep did not
//!   separate (EXPERIMENTS.md keeps the numbers), so how a side waits is
//!   no longer a setting.
//! * **B — free batching** was retired: the drain-batch sweep read flat
//!   from 1 to 256 (EXPERIMENTS.md keeps the numbers), so the drain
//!   batch is no longer a setting.
//! * **C — core type** (§3.2 "Type of Core to Offload to"): big
//!   out-of-order vs. little in-order vs. near-memory service core.
//! * **D — atomic latency** (§3.1.1/§4.1): sweep the RMW cost from
//!   20 to 700 cycles and find where offloading stops paying; its
//!   measured half reads the live tier's call and post latencies.
//! * **E — handshake batching** (§3.1.1's MMT lesson): amortize the
//!   round trip over a batch of prefetched addresses and find the batch
//!   size at which offloading beats Mimalloc.
//! * **F — batched front-end, measured**: E's sweep on the live tier.
//!
//! Every live tier here is shut down through [`live::finish`], and its
//! books must balance.

use std::sync::Arc;

use ngm_core::{Ngm, NgmConfig};
use ngm_sim::{CoreConfig, Machine, MachineConfig};
use ngm_simalloc::ngm::Protocol;
use ngm_simalloc::{run, ModelKind, NgmModel};
use ngm_workloads::xalanc::{self, XalancParams};

use ngm_telemetry::hist::HistogramSnapshot;

use crate::experiments::table3;
use crate::live::{self, Load};
use crate::report::{latency_table, Table};
use crate::Scale;

/// One client thread ping-pongs `ops` 64-byte blocks (each freed before
/// the next is requested) against `ngm`.
fn ping_pong(ngm: &Ngm, ops: u32) {
    let load = Load {
        clients: 1,
        per_thread: ops as usize,
        live_cap: 0,
        size: |_, _| 64,
    };
    live::drive(ngm, load, None, live::must_alloc, live::JOIN_POLL, || ());
}

/// Shuts `ngm` down through [`live::finish`] and panics unless its books
/// balance with no block left live.
fn check_books(label: &str, ngm: Arc<Ngm>) {
    let down = live::finish(ngm);
    assert!(down.clean() && down.balanced(), "{label}: {down:?}");
    assert_eq!(down.heap.live_blocks, 0, "{label}: {down:?}");
}

/// Result of one core-type run.
#[derive(Debug, Clone)]
pub struct CoreRow {
    /// Service-core description.
    pub label: &'static str,
    /// Wall cycles of the xalanc run.
    pub wall_cycles: u64,
    /// Cycles spent by the service core itself.
    pub service_cycles: u64,
}

/// Ablation C: §3.2's core-type choice, simulated.
pub fn core_types(scale: Scale) -> Vec<CoreRow> {
    core_types_with(&XalancParams::default().scaled(scale.0.max(1)))
}

/// As [`core_types`] with explicit workload parameters.
pub fn core_types_with(params: &XalancParams) -> Vec<CoreRow> {
    let mut events = Vec::new();
    xalanc::generate(params, &mut |e| events.push(e));
    let cores: [(&'static str, CoreConfig); 3] = [
        ("big out-of-order", CoreConfig::big()),
        ("little in-order", CoreConfig::little()),
        ("near-memory", CoreConfig::near_memory()),
    ];
    cores
        .into_iter()
        .map(|(label, svc_core)| {
            let mut machine = Machine::new(MachineConfig::asymmetric(1, svc_core));
            let mut model = NgmModel::new(1);
            let r = run(&mut machine, &mut model, events.iter().copied());
            CoreRow {
                label,
                wall_cycles: r.wall_cycles,
                service_cycles: r.per_core.last().expect("service core").cycles,
            }
        })
        .collect()
}

/// Result of one atomic-latency run.
#[derive(Debug, Clone)]
pub struct AtomicRow {
    /// RMW latency in cycles.
    pub atomic_cycles: u64,
    /// NGM wall cycles at that latency.
    pub ngm_wall: u64,
    /// Mimalloc wall cycles at that latency (its remote-free atomics are
    /// rare on this single-threaded workload, so it barely moves).
    pub mimalloc_wall: u64,
}

/// Ablation D: atomic-RMW latency sweep (the §4.1 crossover, simulated).
pub fn atomic_latency(scale: Scale) -> Vec<AtomicRow> {
    atomic_latency_with(&XalancParams::default().scaled(scale.0.max(1)))
}

/// As [`atomic_latency`] with explicit workload parameters.
pub fn atomic_latency_with(params: &XalancParams) -> Vec<AtomicRow> {
    let mut events = Vec::new();
    xalanc::generate(params, &mut |e| events.push(e));
    [20u64, 67, 150, 300, 700]
        .into_iter()
        .map(|lat| {
            let mut ngm_cfg = ModelKind::Ngm.machine(1);
            ngm_cfg.cost.atomic_rmw = lat;
            let mut machine = Machine::new(ngm_cfg);
            let mut model = NgmModel::new(1);
            let ngm = run(&mut machine, &mut model, events.iter().copied());

            let mut mi_cfg = ModelKind::Mimalloc.machine(1);
            mi_cfg.cost.atomic_rmw = lat;
            let mut machine = Machine::new(mi_cfg);
            let mut model = ModelKind::Mimalloc.build(1);
            let mi = run(&mut machine, model.as_mut(), events.iter().copied());

            AtomicRow {
                atomic_cycles: lat,
                ngm_wall: ngm.wall_cycles,
                mimalloc_wall: mi.wall_cycles,
            }
        })
        .collect()
}

/// One measured communication-latency distribution.
#[derive(Debug, Clone)]
pub struct MeasuredCommRow {
    /// Operation label.
    pub op: &'static str,
    /// Round-trip (or post) latency distribution, in
    /// [`ngm_telemetry::clock`] units.
    pub snapshot: HistogramSnapshot,
}

/// Ablation D, measured half: runs a real alloc/free loop on the live
/// runtime under the paper's per-call handshake (`with_batch(1, 1)`) and
/// reports the *observed* T_comm distribution from the always-on latency
/// histograms — the quantity §4.1 models with
/// `ATOMICS_PER_CALL x ATOMIC_CYCLES`.
pub fn measured_comm(ops: u32) -> Vec<MeasuredCommRow> {
    let ngm = Arc::new(
        NgmConfig::new()
            .with_batch(1, 1)
            .build()
            .expect("valid config"),
    );
    ping_pong(&ngm, ops.max(1));
    let calls = ngm.telemetry().call_cycles.snapshot();
    let posts = ngm.telemetry().post_cycles.snapshot();
    check_books("measured comm", ngm);
    vec![
        MeasuredCommRow {
            op: "malloc call (sync round trip)",
            snapshot: calls,
        },
        MeasuredCommRow {
            op: "free post (async enqueue)",
            snapshot: posts,
        },
    ]
}

/// Result of one batching run.
#[derive(Debug, Clone)]
pub struct BatchSimRow {
    /// Refill batch size.
    pub batch: usize,
    /// NGM wall cycles at that batch.
    pub ngm_wall: u64,
    /// Speedup over Mimalloc (>1 means the offloaded allocator wins).
    pub speedup_vs_mimalloc: f64,
}

/// Refill batches Ablation E sweeps: 1 is Table 3's paper column,
/// [`table3::SHIPPED_BATCH`] its shipped-default column.
pub const SIM_BATCHES: [usize; 6] = [1, 4, 16, 32, 64, table3::SHIPPED_BATCH];

/// Ablation E: refill batch size vs Mimalloc (simulated, detailed sync
/// accounting). This is the "aggressive preallocation" MMT needed; it
/// moves the comparison towards the §4.1 break-even.
pub fn handshake_batching(scale: Scale) -> Vec<BatchSimRow> {
    handshake_batching_with(&XalancParams::default().scaled(scale.0.max(1)))
}

/// As [`handshake_batching`] with explicit workload parameters.
pub fn handshake_batching_with(params: &XalancParams) -> Vec<BatchSimRow> {
    let (events, warmup) = xalanc::collect_with_warmup(params);
    let mi = {
        let mut machine = Machine::new(ModelKind::Mimalloc.machine(1));
        let mut model = ModelKind::Mimalloc.build(1);
        ngm_simalloc::run_warm(&mut machine, model.as_mut(), events.iter().copied(), warmup)
            .wall_cycles
    };
    SIM_BATCHES
        .into_iter()
        .map(|batch| {
            let mut machine = Machine::new(NgmModel::machine(1, 1));
            let mut model = NgmModel::with_tier(1, 1, batch, Protocol::Detailed);
            let r =
                ngm_simalloc::run_warm(&mut machine, &mut model, events.iter().copied(), warmup);
            BatchSimRow {
                batch,
                ngm_wall: r.wall_cycles,
                speedup_vs_mimalloc: mi as f64 / r.wall_cycles as f64,
            }
        })
        .collect()
}

/// Renders Ablation E's sweep.
fn render_sim_batching(scale: Scale) -> String {
    let mut t = Table::new(&["refill batch", "NGM wall", "speedup vs Mimalloc"]);
    for r in handshake_batching(scale) {
        t.row(vec![
            r.batch.to_string(),
            r.ngm_wall.to_string(),
            format!("{:+.2}%", (r.speedup_vs_mimalloc - 1.0) * 100.0),
        ]);
    }
    t.render()
}

/// One measured batched-front-end configuration.
#[derive(Debug, Clone)]
pub struct MeasuredBatchRow {
    /// Magazine batch size (1 = the paper's per-call handshake: a refill
    /// of one block per alloc).
    pub batch: usize,
    /// Mean round-trip cycles of one service call at this configuration —
    /// the single-block call at batch 1, the magazine refill otherwise.
    pub roundtrip_mean: f64,
    /// Service round-trip cycles charged per allocation once the refill
    /// is amortized over the batch it fetched.
    pub amortized_per_alloc: f64,
    /// Service round trips per application allocation: exactly 1 at
    /// batch 1, `ceil(ops / batch) / ops` otherwise — the cause of the
    /// amortization, free of wall-clock noise.
    pub roundtrips_per_alloc: f64,
}

/// Ablation F, the tentpole measurement: the *real* batched front-end
/// (per-handle magazines + batched free flush) vs the per-call handshake
/// (`with_batch(1, 1)`, same code path), on the live runtime. The amortized column is total round-trip
/// cycles divided by allocations served — the measured counterpart of the
/// §4.1 `T_comm` amortization that [`handshake_batching`] predicts in sim.
pub fn measured_batched_frontend(ops: u32) -> Vec<MeasuredBatchRow> {
    [1, 8, 32, ngm_core::MAX_BATCH]
        .into_iter()
        .map(|batch| {
            let ngm = Arc::new(
                NgmConfig::new()
                    .with_batch(batch, batch)
                    .build()
                    .expect("valid config"),
            );
            ping_pong(&ngm, ops.max(1));
            // A refill of one block is a call (`ngm_call_cycles`); only
            // refills that amortise land in `ngm_refill_cycles`.
            let snap = if batch == 1 {
                ngm.telemetry().call_cycles.snapshot()
            } else {
                ngm.telemetry().refill_cycles.snapshot()
            };
            check_books(&format!("batch {batch}"), ngm);
            MeasuredBatchRow {
                batch,
                roundtrip_mean: snap.mean(),
                amortized_per_alloc: snap.sum() as f64 / f64::from(ops.max(1)),
                roundtrips_per_alloc: snap.count() as f64 / f64::from(ops.max(1)),
            }
        })
        .collect()
}

/// Renders [`measured_batched_frontend`] next to the §4.1 model constants
/// and Ablation E's simulated sweep, so measurement, analytical model,
/// and simulator can be read side by side.
pub fn render_batched(scale: Scale, real_ops: u32) -> String {
    let rows = measured_batched_frontend(real_ops);
    let unbatched = rows[0].amortized_per_alloc;
    let mut t = Table::new(&[
        "batch",
        "round-trip mean (cyc)",
        "amortized cyc/alloc",
        "vs per-call",
    ]);
    for r in &rows {
        t.row(vec![
            if r.batch == 1 {
                "1 (with_batch(1, 1))".into()
            } else {
                r.batch.to_string()
            },
            format!("{:.0}", r.roundtrip_mean),
            format!("{:.0}", r.amortized_per_alloc),
            if r.batch == 1 {
                "1.00x (baseline)".into()
            } else {
                format!("{:.2}x", r.amortized_per_alloc / unbatched.max(1e-9))
            },
        ]);
    }
    let mut out = format!(
        "Ablation F: batched front-end, measured on the real runtime \
         ({} ops/config, {})\n{}\
         §4.1 model: per-request handshake = {} atomics x {} cycles = {} \
         cycles, so amortized cost ~{}/batch + per-item transfer\n\n",
        real_ops,
        ngm_telemetry::clock::source(),
        t.render(),
        ngm_model::ATOMICS_PER_CALL,
        ngm_model::ATOMIC_CYCLES,
        ngm_model::ATOMICS_PER_CALL * ngm_model::ATOMIC_CYCLES,
        ngm_model::ATOMICS_PER_CALL * ngm_model::ATOMIC_CYCLES,
    );
    out.push_str(&format!(
        "Sim prediction (NgmModel at each refill batch, same sweep direction)\n{}",
        render_sim_batching(scale)
    ));
    out
}

/// Renders all the ablations.
pub fn render_all(scale: Scale, real_ops: u32) -> String {
    let mut out = String::new();

    let mut t = Table::new(&["service core", "wall cycles", "service cycles"]);
    for r in core_types(scale) {
        t.row(vec![
            r.label.into(),
            r.wall_cycles.to_string(),
            r.service_cycles.to_string(),
        ]);
    }
    out.push_str(&format!(
        "Ablation C: core type (simulated, §3.2)\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["atomic cycles", "NGM wall", "Mimalloc wall", "NGM/Mimalloc"]);
    for r in atomic_latency(scale) {
        t.row(vec![
            r.atomic_cycles.to_string(),
            r.ngm_wall.to_string(),
            r.mimalloc_wall.to_string(),
            format!("{:.3}", r.ngm_wall as f64 / r.mimalloc_wall as f64),
        ]);
    }
    out.push_str(&format!(
        "Ablation D: atomic-RMW latency sweep (simulated, §4.1)\n{}\n",
        t.render()
    ));

    let measured = measured_comm(real_ops);
    let rows: Vec<(&str, &HistogramSnapshot)> =
        measured.iter().map(|r| (r.op, &r.snapshot)).collect();
    out.push_str(&format!(
        "Ablation D (measured): T_comm on this machine under with_batch(1, 1), {} per op\n{}\
         §4.1 model: handshake = {} atomics -> ~{} cycles uncontended \
         ({}/atomic), ~{} contended worst case ({}/atomic)\n\n",
        ngm_telemetry::clock::source(),
        latency_table(&rows),
        ngm_model::ATOMICS_PER_CALL,
        ngm_model::ATOMICS_PER_CALL * ngm_model::ATOMIC_CYCLES,
        ngm_model::ATOMIC_CYCLES,
        ngm_model::ATOMICS_PER_CALL * ngm_model::ATOMIC_CYCLES_WORST,
        ngm_model::ATOMIC_CYCLES_WORST,
    ));

    out.push_str(&format!(
        "Ablation E: handshake batching (simulated; MMT's preallocation lesson)\n{}\n",
        render_sim_batching(scale)
    ));

    out.push_str(&render_batched(scale, real_ops));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_type_changes_service_cycles() {
        let rows = core_types_with(&XalancParams::small());
        assert_eq!(rows.len(), 3);
        let big = rows[0].service_cycles;
        let little = rows[1].service_cycles;
        assert!(little > big, "in-order core must be slower at service work");
    }

    #[test]
    fn atomic_latency_hurts_ngm_more() {
        let rows = atomic_latency_with(&XalancParams::small());
        let cheap = &rows[0];
        let dear = rows.last().expect("non-empty sweep");
        let ngm_growth = dear.ngm_wall as f64 / cheap.ngm_wall as f64;
        let mi_growth = dear.mimalloc_wall as f64 / cheap.mimalloc_wall as f64;
        assert!(
            ngm_growth > mi_growth,
            "NGM ({ngm_growth}) must be more atomic-sensitive than Mimalloc ({mi_growth})"
        );
    }

    #[test]
    fn ngm_gap_narrows_as_atomics_cheapen() {
        // The section 4.1 crossover direction: the cheaper the sync, the
        // closer NGM gets to (or past) Mimalloc.
        let rows = atomic_latency_with(&XalancParams::small());
        let ratio = |r: &AtomicRow| r.ngm_wall as f64 / r.mimalloc_wall as f64;
        for w in rows.windows(2) {
            assert!(
                ratio(&w[0]) <= ratio(&w[1]) + 1e-9,
                "NGM/Mimalloc ratio must grow with atomic latency"
            );
        }
        // At the contended worst case (700 cycles) offloading is clearly
        // uneconomical — the paper's own feasibility caveat.
        assert!(ratio(rows.last().unwrap()) > 1.05);
    }

    #[test]
    fn batching_monotonically_helps() {
        let rows = handshake_batching_with(&XalancParams::small());
        for w in rows.windows(2) {
            // Monotone up to measurement noise: very large batches stop
            // helping (the handshake is already amortized away) and may
            // regress slightly from response-transfer volume.
            assert!(
                w[1].ngm_wall as f64 <= w[0].ngm_wall as f64 * 1.02,
                "bigger batches must not be clearly slower: {:?}",
                rows
            );
        }
        // With a healthy batch the offloaded allocator reaches at least
        // parity with Mimalloc — the paper's Table 3 regime.
        let best = rows.last().expect("non-empty");
        assert!(
            best.speedup_vs_mimalloc > 0.97,
            "batch {} should approach parity, got {:+.2}%",
            best.batch,
            (best.speedup_vs_mimalloc - 1.0) * 100.0
        );
    }

    #[test]
    fn batched_frontend_amortizes_round_trips() {
        // The exact cause, not its wall-clock effect: cycles per alloc
        // under a parallel test runner are noise, round trips are not.
        let rows = measured_batched_frontend(2_000);
        assert_eq!(rows[0].batch, 1, "baseline first");
        assert_eq!(rows[0].roundtrips_per_alloc, 1.0);
        assert!(rows[0].amortized_per_alloc > 0.0);
        for r in &rows[1..] {
            // The pop that drains a magazine sends the next refill
            // ahead, so the last one is in flight when the pass ends
            // and is collected when the handle drops.
            assert_eq!(
                r.roundtrips_per_alloc,
                (1 + 2_000 / r.batch) as f64 / 2_000.0,
                "batch {}: one refill per {} allocs and the one on its way",
                r.batch,
                r.batch
            );
        }
    }

    #[test]
    fn measured_comm_counts_every_op() {
        let rows = measured_comm(300);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.snapshot.count(), 300, "{} lost samples", r.op);
            assert!(r.snapshot.p50() <= r.snapshot.p99());
            assert!(r.snapshot.p99() <= r.snapshot.max());
        }
    }
}
