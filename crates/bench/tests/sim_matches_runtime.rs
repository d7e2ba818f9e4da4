//! The simulator and the runtime must not drift apart, and the merged
//! `NgmModel` must not drift from the models it replaced. `ngm-bench` is
//! the one crate that sees both sides.

use ngm_bench::experiments::{ablations, table3};
use ngm_sim::{Machine, PmuCounters};
use ngm_simalloc::ngm::{NgmModel, Protocol};
use ngm_simalloc::{run_warm, RunResult};
use ngm_workloads::churn::{self, ChurnParams};
use ngm_workloads::xalanc::{self, XalancParams};
use ngm_workloads::Event;

/// The sim's table is frozen at 8 KiB (see its doc comment: `table3_sim`
/// pins the cycle counts), so it is a prefix of the heap's, not its equal.
#[test]
fn sim_class_table_is_a_prefix_of_the_heaps() {
    let heap = ngm_heap::classes::CLASS_SIZES;
    let sim = ngm_simalloc::model::CLASS_SIZES;
    assert!(sim.len() <= heap.len());
    for (class, (&s, &h)) in sim.iter().zip(&heap).enumerate() {
        assert_eq!(s as usize, h, "class {class}");
    }
    assert_eq!(
        ngm_simalloc::model::LARGE_CUTOFF,
        u64::from(*sim.last().expect("non-empty table"))
    );
}

#[test]
fn table3_and_ablation_e_model_the_batch_that_ships() {
    assert_eq!(table3::SHIPPED_BATCH, ngm_core::MAX_BATCH);
    assert_eq!(
        ngm_core::NgmConfig::new().batch_size,
        table3::SHIPPED_BATCH,
        "Ngm::start() refills this many blocks per round trip"
    );
    assert_eq!(table3::NGM_COLUMNS[0], (1, Protocol::Detailed));
    assert_eq!(table3::NGM_COLUMNS[1], (1, Protocol::PaperModel));
    assert_eq!(table3::NGM_COLUMNS[2].0, ngm_core::MAX_BATCH);
    assert_eq!(table3::NGM_COLUMNS[3].0, ngm_core::MAX_BATCH);
    assert!(ablations::SIM_BATCHES.contains(&ngm_core::MAX_BATCH));

    // Ablation E's batch-1 and shipped rows are Table 3's detailed columns.
    let params = XalancParams::small();
    let t = table3::run_with(&params, false);
    let e = ablations::handshake_batching_with(&params);
    let row = |batch: usize| e.iter().find(|r| r.batch == batch).expect("row").ngm_wall;
    assert_eq!(row(1), t.cols[1].wall_cycles);
    assert_eq!(row(ngm_core::MAX_BATCH), t.cols[3].wall_cycles);
}

/// Wall cycles, metadata bytes, model atomics, then
/// `[cycles, instructions, LLC-load, LLC-store, dTLB-load, dTLB-store,
/// page walks, atomic RMWs, coherence events]` summed over the
/// application cores and over the service cores.
type Pin = (u64, u64, u64, [u64; 9], [u64; 9]);

fn pin(r: &RunResult, app_cores: usize) -> Pin {
    let digest = |c: PmuCounters| {
        [
            c.cycles,
            c.instructions,
            c.llc_load_misses,
            c.llc_store_misses,
            c.dtlb_load_misses,
            c.dtlb_store_misses,
            c.page_walks,
            c.atomic_rmws,
            c.coherence_events,
        ]
    };
    let service = r.per_core[app_cores..]
        .iter()
        .fold(PmuCounters::default(), |acc, c| acc.merge(c));
    (
        r.wall_cycles,
        r.meta_bytes,
        r.model_atomics,
        digest(r.app_total(app_cores)),
        digest(service),
    )
}

// The literals below were captured at the parent of the commit that
// merged the four NGM model types into one — from its single-shard
// model under both protocols and from its separate sharded model —
// before any model was touched.

#[test]
fn paper_protocol_is_bit_identical_to_the_unmerged_model() {
    let (events, warmup) = xalanc::collect_with_warmup(&XalancParams::small());
    let golden: [(Protocol, Pin); 2] = [
        (
            Protocol::Detailed,
            (
                58_079_189,
                111_082,
                224_864,
                [
                    58_079_189, 80_941_153, 755, 60_581, 36_990, 9_189, 1_135, 56_156, 70_712,
                ],
                [
                    4_174_154, 1_596_239, 42_653, 28_087, 741, 2_176, 5, 56_156, 70_712,
                ],
            ),
        ),
        (
            Protocol::PaperModel,
            (
                56_218_119,
                111_082,
                224_864,
                [
                    56_218_119, 80_856_919, 754, 32_502, 36_990, 9_189, 1_135, 28_078, 42_634,
                ],
                [2_293_042, 1_540_083, 42_653, 9, 745, 2_172, 5, 0, 42_634],
            ),
        ),
    ];
    for (protocol, want) in golden {
        let mut machine = Machine::new(NgmModel::machine(1, 1));
        let mut model = NgmModel::with_protocol(1, protocol);
        let r = run_warm(&mut machine, &mut model, events.iter().copied(), warmup);
        assert_eq!(pin(&r, 1), want, "{protocol:?}");
    }
}

#[test]
fn sharded_tier_is_bit_identical_to_the_unmerged_model_under_cross_core_frees() {
    // Eight clients churning across many classes, every free issued from
    // the core after the one that allocated.
    let mut events = churn::collect(&ChurnParams {
        threads: 8,
        total_allocs: 8_000,
        live_cap: 64,
        size_range: (16, 2048),
        free_percent: 45,
        touch_percent: 5,
        compute_per_step: 4,
        seed: 0x601d,
    });
    for e in &mut events {
        if let Event::Free { thread, .. } = e {
            *thread = (*thread + 1) % 8;
        }
    }
    let golden: [(usize, Pin); 2] = [
        (
            2,
            (
                519_155,
                1_062_220,
                32_000,
                [3_536_913, 258_967, 0, 16_258, 0, 412, 403, 16_000, 15_573],
                [1_025_375, 376_062, 8_062, 8_062, 69, 4, 73, 16_000, 16_000],
            ),
        ),
        (
            4,
            (
                459_647,
                2_112_844,
                32_000,
                [3_539_526, 258_967, 0, 16_279, 0, 418, 409, 16_000, 15_568],
                [1_019_187, 376_062, 8_062, 8_062, 75, 8, 83, 16_000, 16_000],
            ),
        ),
    ];
    for (shards, want) in golden {
        let mut machine = Machine::new(NgmModel::machine(8, shards));
        let mut model = NgmModel::with_tier(8, shards, 1, Protocol::Detailed);
        let r = run_warm(&mut machine, &mut model, events.iter().copied(), 0);
        assert_eq!(r.leaked, 0, "balanced stream");
        assert_eq!(pin(&r, 8), want, "{shards} shards");
    }
}
