//! Runtime statistics for the offload service thread.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::wait::WaitPhase;

/// Sentinel for "no core pinned".
const NOT_PINNED: usize = usize::MAX;

/// Live counters updated by the service thread and client handles.
///
/// Counter fields are monotonically increasing; `ring_occupancy` and
/// `wait_phase` are gauges the service loop overwrites each round. Read a
/// coherent view with [`RuntimeStats::snapshot`].
#[derive(Debug)]
pub struct RuntimeStats {
    /// Synchronous requests served.
    pub calls_served: AtomicU64,
    /// Fire-and-forget messages drained.
    pub posts_served: AtomicU64,
    /// Total polling rounds executed by the service loop.
    pub poll_rounds: AtomicU64,
    /// Polling rounds that found no work.
    pub empty_rounds: AtomicU64,
    /// Clients ever registered.
    pub clients_registered: AtomicU64,
    /// Times a client found its post ring full and had to retry.
    pub post_full_retries: AtomicU64,
    /// Fire-and-forget messages dropped because the service thread was
    /// already gone (its ring closed). Nonzero only after an unclean
    /// shard death; the memory those messages would have freed is lost.
    pub posts_dropped: AtomicU64,
    /// Flag: a client observed this runtime's service thread dead (ring
    /// closed / thread finished) outside of an orderly shutdown.
    pub service_down: AtomicBool,
    /// Times clients remapped allocation traffic away from this shard
    /// because its ring saturated (the sharded tier's rebalance path).
    pub rebalances: AtomicU64,
    /// Times clients rerouted a request to a surviving shard because
    /// this shard's service thread had died.
    pub failovers: AtomicU64,
    /// Batched synchronous requests served (magazine refills in the
    /// malloc deployment); a subset of `calls_served`.
    pub batched_calls_served: AtomicU64,
    /// Times a client's call or post exhausted its deadline budget
    /// against this shard (the shard was wedged or saturated, not
    /// necessarily dead).
    pub deadlines: AtomicU64,
    /// Total bounded retry iterations clients spent against this shard:
    /// full-ring post retries plus reroute attempts after a deadline.
    pub retry_total: AtomicU64,
    /// Times a non-blocking operation against this shard refused to wait:
    /// a submission found its slot busy, or a non-blocking post found the
    /// ring full. Transient by definition (the caller buffers and
    /// retries); sustained growth means clients outrun the shard.
    pub wouldblocks: AtomicU64,
    /// Gauge: submissions in flight through the non-blocking front-end
    /// (begun, neither completed nor retracted), published by submission
    /// queues as their depth changes.
    pub inflight: AtomicI64,
    /// Gauge: 64-byte ring cells holding pending posts across all client
    /// rings, as of the service loop's last poll round.
    pub ring_occupancy: AtomicUsize,
    /// Gauge: pre-handed-out items stashed in client magazines, published
    /// by handles at refill/drop boundaries (never on the pop fast path —
    /// §3.1.3's no-new-atomics rule).
    pub magazine_occupancy: AtomicI64,
    /// Gauge: the service wait loop's current [`WaitPhase`] (as `u32`).
    pub wait_phase: AtomicU32,
    /// Times the service wait loop changed phase (spin → yield → sleep,
    /// or any phase → spin when work arrived).
    pub wait_transitions: AtomicU64,
    /// Core the service thread was pinned to, or `usize::MAX`.
    pub pinned_core: AtomicUsize,
}

/// A plain-value copy of [`RuntimeStats`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Synchronous requests served.
    pub calls_served: u64,
    /// Fire-and-forget messages drained.
    pub posts_served: u64,
    /// Total polling rounds executed by the service loop.
    pub poll_rounds: u64,
    /// Polling rounds that found no work.
    pub empty_rounds: u64,
    /// Clients ever registered.
    pub clients_registered: u64,
    /// Times a client found its post ring full and had to retry.
    pub post_full_retries: u64,
    /// Messages dropped because the service thread was already gone.
    pub posts_dropped: u64,
    /// Whether a client observed this runtime's service thread dead
    /// outside of an orderly shutdown.
    pub service_down: bool,
    /// Times clients rebalanced allocation traffic off this shard.
    pub rebalances: u64,
    /// Times clients failed a request over to a surviving shard.
    pub failovers: u64,
    /// Batched synchronous requests served (magazine refills).
    pub batched_calls_served: u64,
    /// Client operations that exhausted their deadline budget.
    pub deadlines: u64,
    /// Total bounded retry iterations clients spent against this shard.
    pub retry_total: u64,
    /// Non-blocking operations that refused to wait (busy slot or full
    /// ring at a single-attempt submission).
    pub wouldblocks: u64,
    /// Submissions in flight through the non-blocking front-end.
    pub inflight: i64,
    /// Ring cells (64 bytes each) holding pending posts across all
    /// client rings at the last poll round.
    pub ring_occupancy: usize,
    /// Items stashed in client magazines as of the last refill/drop
    /// publication.
    pub magazine_occupancy: i64,
    /// The service wait loop's phase when the snapshot was taken.
    pub wait_phase: WaitPhase,
    /// Wait-loop phase transitions so far.
    pub wait_transitions: u64,
    /// Core the service thread ended up pinned to, if any.
    pub pinned_core: Option<usize>,
}

impl Default for RuntimeStats {
    /// Equivalent to [`RuntimeStats::new`].
    ///
    /// A derived `Default` would zero `pinned_core`, making fresh stats
    /// claim a pin to core 0; the sentinel must be set explicitly.
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeStats {
    /// Creates zeroed stats (with `pinned_core` at its "not pinned"
    /// sentinel).
    pub fn new() -> Self {
        RuntimeStats {
            calls_served: AtomicU64::new(0),
            posts_served: AtomicU64::new(0),
            poll_rounds: AtomicU64::new(0),
            empty_rounds: AtomicU64::new(0),
            clients_registered: AtomicU64::new(0),
            post_full_retries: AtomicU64::new(0),
            posts_dropped: AtomicU64::new(0),
            service_down: AtomicBool::new(false),
            rebalances: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            batched_calls_served: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            retry_total: AtomicU64::new(0),
            wouldblocks: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            ring_occupancy: AtomicUsize::new(0),
            magazine_occupancy: AtomicI64::new(0),
            wait_phase: AtomicU32::new(WaitPhase::Spin as u32),
            wait_transitions: AtomicU64::new(0),
            pinned_core: AtomicUsize::new(NOT_PINNED),
        }
    }

    /// Records a successful pin.
    pub fn record_pin(&self, core: usize) {
        self.pinned_core.store(core, Ordering::Relaxed);
    }

    /// Flags this runtime's service thread as dead (observed by a client
    /// outside of an orderly shutdown).
    pub fn mark_service_down(&self) {
        self.service_down.store(true, Ordering::Relaxed);
    }

    /// Counts one message dropped because the service was gone.
    pub fn record_post_dropped(&self) {
        self.posts_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one rebalance of client traffic off this shard.
    pub fn record_rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failover of a request to a surviving shard.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one deadline expiry against this shard.
    pub fn record_deadline(&self) {
        self.deadlines.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` bounded retry iterations to the running total.
    pub fn add_retries(&self, n: u64) {
        if n != 0 {
            self.retry_total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adjusts the magazine-occupancy gauge by `delta`. Called by client
    /// handles only at refill and drain boundaries, never per pop.
    pub fn add_magazine_occupancy(&self, delta: i64) {
        self.magazine_occupancy.fetch_add(delta, Ordering::Relaxed);
    }

    /// Counts one non-blocking refusal (busy slot or full ring on a
    /// single-attempt submission).
    pub fn record_wouldblock(&self) {
        self.wouldblocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjusts the in-flight-submission gauge by `delta`. Called by
    /// submission queues as entries are begun and completed/retracted.
    pub fn add_inflight(&self, delta: i64) {
        self.inflight.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records a wait-loop phase change (gauge overwrite plus transition
    /// count). Called by the service loop only.
    pub fn record_wait_phase(&self, phase: WaitPhase) {
        self.wait_phase.store(phase as u32, Ordering::Relaxed);
        self.wait_transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let pinned = self.pinned_core.load(Ordering::Relaxed);
        StatsSnapshot {
            calls_served: self.calls_served.load(Ordering::Relaxed),
            posts_served: self.posts_served.load(Ordering::Relaxed),
            poll_rounds: self.poll_rounds.load(Ordering::Relaxed),
            empty_rounds: self.empty_rounds.load(Ordering::Relaxed),
            clients_registered: self.clients_registered.load(Ordering::Relaxed),
            post_full_retries: self.post_full_retries.load(Ordering::Relaxed),
            posts_dropped: self.posts_dropped.load(Ordering::Relaxed),
            service_down: self.service_down.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            batched_calls_served: self.batched_calls_served.load(Ordering::Relaxed),
            deadlines: self.deadlines.load(Ordering::Relaxed),
            retry_total: self.retry_total.load(Ordering::Relaxed),
            wouldblocks: self.wouldblocks.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            ring_occupancy: self.ring_occupancy.load(Ordering::Relaxed),
            magazine_occupancy: self.magazine_occupancy.load(Ordering::Relaxed),
            wait_phase: WaitPhase::from_u32(self.wait_phase.load(Ordering::Relaxed)),
            wait_transitions: self.wait_transitions.load(Ordering::Relaxed),
            pinned_core: (pinned != NOT_PINNED).then_some(pinned),
        }
    }
}

impl StatsSnapshot {
    /// Folds another shard's snapshot into this one: counters and
    /// occupancy gauges sum, `service_down` ORs, and the fields that only
    /// make sense per shard (`wait_phase`, `pinned_core`) keep `self`'s
    /// values. Used to present a fleet of service shards as one runtime.
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        self.calls_served += other.calls_served;
        self.posts_served += other.posts_served;
        self.poll_rounds += other.poll_rounds;
        self.empty_rounds += other.empty_rounds;
        self.clients_registered += other.clients_registered;
        self.post_full_retries += other.post_full_retries;
        self.posts_dropped += other.posts_dropped;
        self.service_down |= other.service_down;
        self.rebalances += other.rebalances;
        self.failovers += other.failovers;
        self.batched_calls_served += other.batched_calls_served;
        self.deadlines += other.deadlines;
        self.retry_total += other.retry_total;
        self.wouldblocks += other.wouldblocks;
        self.inflight += other.inflight;
        self.ring_occupancy += other.ring_occupancy;
        self.magazine_occupancy += other.magazine_occupancy;
        self.wait_transitions += other.wait_transitions;
    }

    /// Fraction of polling rounds that found no work, in `[0, 1]`.
    pub fn idle_fraction(&self) -> f64 {
        if self.poll_rounds == 0 {
            0.0
        } else {
            self.empty_rounds as f64 / self.poll_rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stats_report_unpinned() {
        let s = RuntimeStats::new();
        assert_eq!(s.snapshot().pinned_core, None);
    }

    #[test]
    fn default_stats_report_unpinned() {
        // Regression: a derived `Default` left `pinned_core` at 0, so
        // default-constructed stats claimed a pin to core 0.
        let s = RuntimeStats::default();
        assert_eq!(s.snapshot().pinned_core, None);
    }

    #[test]
    fn record_pin_shows_in_snapshot() {
        let s = RuntimeStats::new();
        s.record_pin(3);
        assert_eq!(s.snapshot().pinned_core, Some(3));
    }

    #[test]
    fn idle_fraction_handles_zero_rounds() {
        let s = RuntimeStats::new();
        assert_eq!(s.snapshot().idle_fraction(), 0.0);
        s.poll_rounds.store(10, Ordering::Relaxed);
        s.empty_rounds.store(4, Ordering::Relaxed);
        assert!((s.snapshot().idle_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn magazine_occupancy_gauge_moves_both_ways() {
        let s = RuntimeStats::new();
        assert_eq!(s.snapshot().magazine_occupancy, 0);
        s.add_magazine_occupancy(16);
        s.add_magazine_occupancy(16);
        assert_eq!(s.snapshot().magazine_occupancy, 32);
        s.add_magazine_occupancy(-32);
        assert_eq!(s.snapshot().magazine_occupancy, 0);
    }

    #[test]
    fn absorb_sums_counters_and_ors_down_flag() {
        let a = RuntimeStats::new();
        a.calls_served.store(3, Ordering::Relaxed);
        a.ring_occupancy.store(2, Ordering::Relaxed);
        let b = RuntimeStats::new();
        b.calls_served.store(4, Ordering::Relaxed);
        b.ring_occupancy.store(5, Ordering::Relaxed);
        b.mark_service_down();
        b.record_rebalance();
        b.record_post_dropped();
        b.record_deadline();
        b.add_retries(5);
        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.calls_served, 7);
        assert_eq!(snap.ring_occupancy, 7);
        assert!(snap.service_down);
        assert_eq!(snap.rebalances, 1);
        assert_eq!(snap.posts_dropped, 1);
        assert_eq!(snap.deadlines, 1);
        assert_eq!(snap.retry_total, 5);
    }

    #[test]
    fn fresh_stats_report_service_up() {
        let s = RuntimeStats::new();
        let snap = s.snapshot();
        assert!(!snap.service_down);
        assert_eq!(snap.posts_dropped, 0);
        assert_eq!(snap.failovers, 0);
    }

    #[test]
    fn wouldblock_counter_and_inflight_gauge_absorb() {
        let a = RuntimeStats::new();
        a.record_wouldblock();
        a.add_inflight(3);
        let b = RuntimeStats::new();
        b.record_wouldblock();
        b.record_wouldblock();
        b.add_inflight(4);
        b.add_inflight(-2);
        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.wouldblocks, 3);
        assert_eq!(snap.inflight, 5);
    }

    #[test]
    fn wait_phase_gauge_tracks_transitions() {
        let s = RuntimeStats::new();
        assert_eq!(s.snapshot().wait_phase, WaitPhase::Spin);
        assert_eq!(s.snapshot().wait_transitions, 0);
        s.record_wait_phase(WaitPhase::Sleep);
        let snap = s.snapshot();
        assert_eq!(snap.wait_phase, WaitPhase::Sleep);
        assert_eq!(snap.wait_transitions, 1);
    }
}
