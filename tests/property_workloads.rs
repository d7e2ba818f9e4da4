//! Property-based tests of the workload generators: every generator, at
//! any parameter point, must emit a well-formed stream (no double frees,
//! no out-of-bounds touches, balanced mallocs/frees) and be
//! deterministic.

use ngm_workloads::events::validate;
use ngm_workloads::{churn, xalanc, xmalloc};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn xalanc_streams_are_valid(
        docs in 1u32..6,
        nodes in 10u32..200,
        live_docs in 1u32..4,
        pins in 0u32..400,
        queries in 0u32..12,
        seed in any::<u64>(),
    ) {
        let p = xalanc::XalancParams {
            docs,
            nodes_per_doc: nodes,
            live_docs,
            pin_per_mille: pins,
            queries_per_node: queries,
            parse_compute: 100,
            transform_compute: 100,
            seed,
        };
        let (events, warmup) = xalanc::collect_with_warmup(&p);
        let s = validate(events.iter().copied(), false).expect("valid stream");
        prop_assert_eq!(s.mallocs, s.frees);
        prop_assert!(warmup <= events.len());
    }

    #[test]
    fn xmalloc_streams_are_valid(
        threads in 1u8..9,
        allocs in 1u32..500,
        batch in 1u32..100,
        seed in any::<u64>(),
    ) {
        let p = xmalloc::XmallocParams {
            threads,
            allocs_per_thread: allocs,
            batch,
            seed,
            ..xmalloc::XmallocParams::default()
        };
        let s = validate(xmalloc::collect(&p).into_iter(), false).expect("valid stream");
        prop_assert_eq!(s.mallocs, u64::from(threads) * u64::from(allocs));
    }

    #[test]
    fn churn_streams_are_valid(
        threads in 1u8..5,
        total in 1u32..600,
        cap in 1u32..100,
        free_pct in 0u8..100,
        seed in any::<u64>(),
    ) {
        let p = churn::ChurnParams {
            threads,
            total_allocs: total,
            live_cap: cap,
            free_percent: free_pct,
            seed,
            ..churn::ChurnParams::default()
        };
        let s = validate(churn::collect(&p).into_iter(), false).expect("valid stream");
        prop_assert_eq!(s.mallocs, u64::from(total));
        prop_assert!(s.peak_live <= u64::from(cap) * u64::from(threads) + u64::from(threads));
    }

    #[test]
    fn generators_are_deterministic(seed in any::<u64>()) {
        let p = churn::ChurnParams {
            seed,
            ..churn::ChurnParams::tiny()
        };
        prop_assert_eq!(churn::collect(&p), churn::collect(&p));
        let x = xalanc::XalancParams {
            seed,
            ..xalanc::XalancParams::tiny()
        };
        prop_assert_eq!(xalanc::collect(&x), xalanc::collect(&x));
    }
}
