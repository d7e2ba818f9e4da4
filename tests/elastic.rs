//! Deterministic scaling contract for the elastic shard tier.
//!
//! Every test here steers the controller with injected heat frames
//! ([`ngm_core::api::Ngm::inject_heat`]) and explicit controller
//! evaluations ([`ngm_core::api::Ngm::scaling_tick`], the half of
//! `tick()` that decides) instead of real load, so the decisions
//! asserted are exact — no timing, no tick cadence:
//!
//! * **Scale-up** is a pure function of the windowed load: two settled
//!   hot frames plus `SUSTAIN` ticks produce exactly one `ScaleUp` into
//!   the lowest dormant slot, and the fresh shard's unsettled window
//!   drops the controller back to the static policy until it has
//!   reported twice.
//! * **Scale-down** drains before it retires: the drain only completes
//!   once the victim's books balance exactly, so
//!   [`ngm_core::api::NgmShutdown::balanced`] still holds per shard
//!   afterward.
//! * Under `--features faultinject`, a shard **wedged mid-drain** must
//!   not hang the tier: allocations reroute to survivors immediately,
//!   and the controller runs out of patience after exactly
//!   [`ngm_core::config::DRAIN_PATIENCE`] evaluations and reopens the shard
//!   (`DrainAborted`) instead of waiting forever.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::time::{Duration, Instant};

use ngm_core::{CorePlacement, Ngm, NgmConfig, ScaleDecision, ShardLifecycle};
use ngm_telemetry::trace::TraceEventKind;
use ngm_telemetry::window::HeatFrame;

/// A cumulative heat frame carrying only a call counter — the minimal
/// signal the controller's load metric reads.
fn frame(tsc: u64, calls: u64) -> HeatFrame {
    HeatFrame {
        tsc,
        calls,
        ..HeatFrame::default()
    }
}

/// Allocates `n` blocks of rotating small sizes through `h`.
fn alloc_some(h: &mut ngm_core::NgmHandle, n: usize) -> Vec<(NonNull<u8>, Layout)> {
    (0..n)
        .map(|i| {
            let layout = Layout::from_size_align(16 * (1 + i % 8), 8).expect("valid layout");
            let p = h.alloc(layout).expect("alloc");
            (p, layout)
        })
        .collect()
}

fn free_all(h: &mut ngm_core::NgmHandle, blocks: Vec<(NonNull<u8>, Layout)>) {
    for (p, layout) in blocks {
        // SAFETY: live block from this tier.
        unsafe { h.dealloc(p, layout) };
    }
}

/// Spacing of the evaluations that wait out a drain: the controller may
/// abort a drain at its `DRAIN_PATIENCE`-th evaluation, so a healthy one
/// gets `DRAIN_PATIENCE` × this (200 ms) to balance on a loaded host.
const DRAIN_TICK: Duration = Duration::from_millis(25);

/// Evaluates the controller until the drain of `shard` retires it. The
/// drain must finish because the shard *balances*: an abort (the
/// controller gave up — a leak would read like that) or any other
/// decision fails the test.
fn tick_until_retired(ngm: &Ngm, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match ngm.scaling_tick() {
            ScaleDecision::Retired { shard: s } => {
                assert_eq!(s, shard);
                return;
            }
            ScaleDecision::Hold => {
                assert!(Instant::now() < deadline, "drain never completed");
                std::thread::sleep(DRAIN_TICK);
            }
            other => panic!("unexpected decision mid-drain: {other:?}"),
        }
    }
}

/// The background ticker is the tier's clock when nobody ticks by hand:
/// it advances `ticks()` (one heat frame per shard each) until stopped,
/// and stopping it releases the tier.
#[test]
fn autoscaler_ticks_until_stopped() {
    let ngm = std::sync::Arc::new(
        NgmConfig::new()
            .with_shards(1)
            .elastic(1, 2)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config"),
    );
    let ticker = ngm
        .autoscaler(Duration::from_millis(1))
        .expect("ticker thread spawns");
    let deadline = Instant::now() + Duration::from_secs(10);
    while ngm.ticks() < 3 {
        assert!(Instant::now() < deadline, "ticker never ticked");
        std::thread::sleep(Duration::from_millis(1));
    }
    // `stop` joins the thread, so the weak reference it held is gone
    // and the tier can be taken back by value below.
    ticker.stop();
    assert_eq!(
        ngm.serving_shards(),
        vec![0],
        "an idle tier holds its floor"
    );
    let ngm = std::sync::Arc::into_inner(ngm).expect("ticker released its reference");
    assert!(ngm.shutdown().clean());
}

/// A non-elastic tier never scales: ticks hold, retirement is refused.
#[test]
fn static_tier_never_scales() {
    let ngm = NgmConfig::new()
        .with_shards(2)
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    ngm.inject_heat(0, frame(1, 0));
    ngm.inject_heat(0, frame(2, 100_000));
    ngm.inject_heat(1, frame(1, 0));
    ngm.inject_heat(1, frame(2, 100_000));
    for _ in 0..4 {
        assert_eq!(ngm.scaling_tick(), ScaleDecision::Hold);
    }
    assert!(!ngm.begin_retire(1), "static tier refuses retirement");
    assert_eq!(ngm.scale_counts(), (0, 0));
    assert!(ngm.shutdown().clean());
}

/// Scale-up under an injected ramp is exact: `SUSTAIN` hot ticks spawn
/// one shard into the lowest dormant slot; the fresh shard's unsettled
/// window then forces the static fallback (`Hold`) until it has two
/// frames, after which the still-hot mean spawns the next slot.
#[test]
fn scale_up_is_deterministic_under_injected_ramp() {
    let ngm = NgmConfig::new()
        .with_shards(1)
        .elastic(1, 4)
        .with_placement(CorePlacement::Unpinned)
        .with_trace_capacity(256)
        .build()
        .expect("valid config");
    assert_eq!(ngm.serving_shards(), vec![0]);

    // Two cumulative frames → windowed calls = 200 > HIGH_WATER (96).
    ngm.inject_heat(0, frame(1, 0));
    ngm.inject_heat(0, frame(2, 200));

    // SUSTAIN = 2: first tick arms the streak, second fires.
    assert_eq!(ngm.scaling_tick(), ScaleDecision::Hold);
    assert_eq!(ngm.scaling_tick(), ScaleDecision::ScaleUp { shard: 1 });
    assert_eq!(ngm.serving_shards(), vec![0, 1]);
    assert_eq!(ngm.shard_states()[1], ShardLifecycle::Serving);
    assert_eq!(ngm.scale_counts(), (1, 0));

    // The new shard has no settled window yet: the controller falls
    // back to the static policy no matter how hot the settled shards
    // read, and the streak does not accumulate meanwhile.
    for _ in 0..4 {
        assert_eq!(
            ngm.scaling_tick(),
            ScaleDecision::Hold,
            "unsettled window must force the static fallback"
        );
    }
    assert_eq!(ngm.scale_counts(), (1, 0), "fallback ticks spawned nothing");

    // Settle shard 1 cold; the mean (200 + 0) / 2 = 100 still clears
    // HIGH_WATER, so two more ticks spawn the next-lowest slot.
    ngm.inject_heat(1, frame(10, 0));
    ngm.inject_heat(1, frame(11, 0));
    assert_eq!(ngm.scaling_tick(), ScaleDecision::Hold);
    assert_eq!(ngm.scaling_tick(), ScaleDecision::ScaleUp { shard: 2 });
    assert_eq!(ngm.serving_shards(), vec![0, 1, 2]);
    assert_eq!(ngm.scale_counts(), (2, 0));

    // Both spawns left scale events in the trace (code 1 = spawn).
    let drain = ngm.telemetry().drain_trace();
    let spawns: Vec<u64> = drain
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::Scale && e.a == 1)
        .map(|e| e.b)
        .collect();
    assert_eq!(spawns, vec![1, 2], "one spawn event per scale-up, in order");

    let down = ngm.shutdown();
    assert!(down.clean() && down.balanced());
}

/// Scale-down retires the slot outside the resident floor only after
/// its books balance exactly, and the survivor keeps serving: the
/// shutdown report stays clean and per-shard balanced.
#[test]
fn scale_down_drain_preserves_per_shard_balance() {
    let ngm = NgmConfig::new()
        .with_shards(2)
        .elastic(1, 2)
        .with_batch(1, 1)
        .with_placement(CorePlacement::Unpinned)
        .build()
        .expect("valid config");
    assert_eq!(ngm.serving_shards(), vec![0, 1]);

    // Real traffic across both shards, fully returned.
    let mut h = ngm.handle();
    let blocks = alloc_some(&mut h, 256);
    free_all(&mut h, blocks);
    drop(h);

    // Both shards settled and cold (windowed calls = 0 < LOW_WATER).
    for shard in 0..2 {
        ngm.inject_heat(shard, frame(1, 0));
        ngm.inject_heat(shard, frame(2, 0));
    }
    assert_eq!(ngm.scaling_tick(), ScaleDecision::Hold, "streak arming");
    assert_eq!(
        ngm.scaling_tick(),
        ScaleDecision::DrainBegun { shard: 1 },
        "the only slot outside the resident floor is the victim"
    );
    assert_eq!(ngm.shard_states()[1], ShardLifecycle::Draining);

    // The heap publishes its balance on service idle rounds, so drain
    // completion is eventual — tick until it lands.
    tick_until_retired(&ngm, 1);
    assert_eq!(ngm.shard_states()[1], ShardLifecycle::Retired);
    assert_eq!(ngm.serving_shards(), vec![0]);
    assert_eq!(ngm.scale_counts(), (0, 1));

    // The tier still serves after the retire — everything lands on the
    // survivor and balances.
    let mut h = ngm.handle();
    let blocks = alloc_some(&mut h, 128);
    free_all(&mut h, blocks);
    drop(h);

    let down = ngm.shutdown();
    assert!(down.clean(), "no shard reported an error");
    assert!(
        down.balanced(),
        "some shard's allocs != frees: {:?}",
        down.shards
            .iter()
            .map(|s| (s.shard, s.service.allocs, s.service.frees))
            .collect::<Vec<_>>()
    );
}

/// A shard stops one way (`Slot::stop`), whoever stops it: for
/// identical traffic, a shard the controller retired and `shutdown`
/// then reported shows the same books as the same shard stopped by
/// `shutdown` alone.
#[test]
fn a_retired_shard_reports_the_books_of_one_stopped_at_shutdown() {
    let tier_after_traffic = || {
        let ngm = NgmConfig::new()
            .with_shards(2)
            .elastic(1, 2)
            .with_batch(1, 1)
            .with_placement(CorePlacement::Unpinned)
            .build()
            .expect("valid config");
        let mut h = ngm.handle();
        let blocks = alloc_some(&mut h, 256);
        free_all(&mut h, blocks);
        drop(h);
        ngm
    };
    // Every count that traffic alone decides (idle-round housekeeping
    // and preallocation depend on how long the thread sat idle).
    let books = |s: &ngm_core::ShardShutdown| {
        assert!(s.error.is_none(), "shard {} lost its service", s.shard);
        let (svc, heap) = (&s.service, &s.heap);
        [
            svc.allocs,
            svc.frees,
            svc.failures,
            svc.batch_refills,
            svc.magazine_returned,
            svc.orphans_reclaimed,
            svc.protocol_errors,
            heap.total_allocs,
            heap.total_frees,
            heap.live_blocks,
            heap.live_bytes,
            heap.peak_live_bytes,
            s.runtime.calls_served,
        ]
    };

    let retired = tier_after_traffic();
    assert!(retired.begin_retire(1), "slot 1 is outside the floor");
    tick_until_retired(&retired, 1);
    assert_eq!(retired.shard_health(1), None, "the thread is joined");
    let retired = retired.shutdown();

    let stopped = tier_after_traffic().shutdown();

    assert!(retired.clean() && retired.balanced());
    assert!(stopped.clean() && stopped.balanced());
    assert!(books(&stopped.shards[1])[0] > 0, "shard 1 saw traffic");
    for shard in 0..2 {
        assert_eq!(
            books(&retired.shards[shard]),
            books(&stopped.shards[shard]),
            "shard {shard}"
        );
    }
}

#[cfg(feature = "faultinject")]
mod faultinject {
    use super::*;
    use ngm_core::config::DRAIN_PATIENCE;

    /// A shard wedged mid-drain must not hang the tier: allocations
    /// reroute to survivors while the drain is pending, and the
    /// controller aborts the drain (reopening the shard) at exactly its
    /// `DRAIN_PATIENCE`-th evaluation instead of waiting on the wedged
    /// shard forever. The test's own completion is the no-hang proof.
    #[test]
    fn wedged_mid_drain_reroutes_and_aborts() {
        let ngm = NgmConfig::new()
            .with_shards(2)
            .elastic(1, 2)
            .with_batch(1, 1)
            .with_placement(CorePlacement::Unpinned)
            .with_deadline(Some(Duration::from_millis(50)))
            .build()
            .expect("valid config");

        // Live blocks spread across both shards: the victim can never
        // balance while these are held, so the drain genuinely wedges.
        let mut h = ngm.handle();
        let held = alloc_some(&mut h, 128);

        assert!(ngm.begin_retire(1), "victim outside the floor, serving");
        assert_eq!(ngm.shard_states()[1], ShardLifecycle::Draining);
        ngm.fault_state(1).set_wedged(true);

        // Allocations during the wedged drain must succeed promptly by
        // rerouting — classes previously routed to shard 1 move to the
        // survivor on the first retiring refusal.
        let t0 = Instant::now();
        let during = alloc_some(&mut h, 64);
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "allocations rerouted, not hung on the wedged shard"
        );
        free_all(&mut h, during);

        // The drain can never complete; the controller holds for
        // `DRAIN_PATIENCE - 1` evaluations and aborts on the next.
        for eval in 1..DRAIN_PATIENCE {
            assert_eq!(ngm.scaling_tick(), ScaleDecision::Hold, "evaluation {eval}");
        }
        assert_eq!(ngm.scaling_tick(), ScaleDecision::DrainAborted { shard: 1 });
        assert_eq!(
            ngm.shard_states()[1],
            ShardLifecycle::Serving,
            "aborted drain reopens the shard"
        );
        assert_eq!(ngm.scale_counts(), (0, 0), "no retirement happened");

        // Recovery: unwedge, return every held block, come down clean.
        ngm.fault_state(1).set_wedged(false);
        free_all(&mut h, held);
        drop(h);

        let down = ngm.shutdown();
        assert!(down.clean(), "no shard reported an error");
        assert!(
            down.balanced(),
            "some shard's allocs != frees: {:?}",
            down.shards
                .iter()
                .map(|s| (s.shard, s.service.allocs, s.service.frees))
                .collect::<Vec<_>>()
        );
    }
}
