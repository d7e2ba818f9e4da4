//! Runtime statistics for the offload service thread.

use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};

use crate::wait::WaitPhase;

/// Sentinel for "no core pinned".
const NOT_PINNED: usize = usize::MAX;

/// Live counters updated by the service thread and client handles.
///
/// Counter fields are monotonically increasing; `ring_occupancy` and
/// `wait_phase` are gauges the service loop overwrites each round. Read a
/// coherent view with [`RuntimeStats::snapshot`].
///
/// The fields are laid out by writer. The first 128-byte block holds
/// what the service loop writes — `calls_served` through `service_tid`
/// — and it alone writes them, so each update is a relaxed load and
/// store, not a locked read-modify-write. Every other field, from
/// `clients_registered` on, starts the second block: clients (and the
/// thread that registers or stops them) write those. A client's update
/// therefore never pulls in the line the service rewrites every polling
/// round, nor the pair of lines an adjacent-line prefetcher moves
/// together.
#[derive(Debug)]
#[repr(C, align(128))]
pub struct RuntimeStats {
    /// Synchronous requests served.
    pub calls_served: AtomicU64,
    /// Fire-and-forget messages drained.
    pub posts_served: AtomicU64,
    /// Total polling rounds executed by the service loop.
    pub poll_rounds: AtomicU64,
    /// Polling rounds that found no work.
    pub empty_rounds: AtomicU64,
    /// Gauge: 64-byte ring cells holding pending posts across all client
    /// rings, as of the service loop's last poll round.
    pub ring_occupancy: AtomicUsize,
    /// Gauge: the service wait loop's current [`WaitPhase`] (as `u32`).
    pub wait_phase: AtomicU32,
    /// Times the service wait loop changed phase (spin → yield → sleep,
    /// or any phase → spin when work arrived).
    pub wait_transitions: AtomicU64,
    /// Core the service thread was pinned to, or `usize::MAX`.
    pub pinned_core: AtomicUsize,
    /// The service thread's OS thread id, or 0 until its loop starts:
    /// written once, before the first round, so that counters can be
    /// opened on the thread from outside it.
    pub service_tid: AtomicI32,
    /// Starts the clients' block on the next 128-byte boundary.
    _client_block: Block,
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
    /// Times a client's call or post exhausted its deadline budget
    /// against this shard (the shard was wedged or saturated, not
    /// necessarily dead).
    pub deadlines: AtomicU64,
    /// Gauge: pre-handed-out items stashed in client magazines, published
    /// by handles at refill/drop boundaries (never on the pop fast path —
    /// §3.1.3's no-new-atomics rule).
    pub magazine_occupancy: AtomicI64,
}

/// A zero-sized field aligned to 128 bytes: in a `repr(C)` struct the
/// field after it starts a new 128-byte block.
#[derive(Debug)]
#[repr(align(128))]
struct Block;

/// Adds `n` to a counter only one thread writes: a relaxed load and
/// store, exact because no other thread stores to it, and free of the
/// locked read-modify-write a `fetch_add` would issue.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
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
    /// Client operations that exhausted their deadline budget.
    pub deadlines: u64,
    /// The same count as `post_full_retries`, which fills it. It stays
    /// only because the benchmark's adapter reads it; ROADMAP item 1
    /// drops it.
    pub retry_total: u64,
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
            ring_occupancy: AtomicUsize::new(0),
            wait_phase: AtomicU32::new(WaitPhase::Spin as u32),
            wait_transitions: AtomicU64::new(0),
            pinned_core: AtomicUsize::new(NOT_PINNED),
            service_tid: AtomicI32::new(0),
            _client_block: Block,
            clients_registered: AtomicU64::new(0),
            post_full_retries: AtomicU64::new(0),
            posts_dropped: AtomicU64::new(0),
            service_down: AtomicBool::new(false),
            rebalances: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            deadlines: AtomicU64::new(0),
            magazine_occupancy: AtomicI64::new(0),
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

    /// Adjusts the magazine-occupancy gauge by `delta`. Called by client
    /// handles only at refill and drain boundaries, never per pop; a
    /// refill calls it while it still holds the slot, so the locked add
    /// does not wait behind the store that releases it.
    pub fn add_magazine_occupancy(&self, delta: i64) {
        self.magazine_occupancy.fetch_add(delta, Ordering::Relaxed);
    }

    /// Records a wait-loop phase change (gauge overwrite plus transition
    /// count). Called by the service loop only, which is what lets the
    /// count be a load and a store.
    pub fn record_wait_phase(&self, phase: WaitPhase) {
        self.wait_phase.store(phase as u32, Ordering::Relaxed);
        bump(&self.wait_transitions, 1);
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
            deadlines: self.deadlines.load(Ordering::Relaxed),
            retry_total: self.post_full_retries.load(Ordering::Relaxed),
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
        self.deadlines += other.deadlines;
        self.retry_total += other.retry_total;
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
    fn client_and_service_counters_never_share_a_line() {
        use std::mem::offset_of;
        const BLOCK: usize = 128;
        // Block-aligned start, so offsets in one block are one block of
        // memory wherever the stats live.
        assert!(std::mem::align_of::<RuntimeStats>() >= BLOCK);
        let service = [
            offset_of!(RuntimeStats, calls_served),
            offset_of!(RuntimeStats, posts_served),
            offset_of!(RuntimeStats, poll_rounds),
            offset_of!(RuntimeStats, empty_rounds),
            offset_of!(RuntimeStats, ring_occupancy),
            offset_of!(RuntimeStats, wait_phase),
            offset_of!(RuntimeStats, wait_transitions),
            offset_of!(RuntimeStats, pinned_core),
            offset_of!(RuntimeStats, service_tid),
        ];
        let client = [
            offset_of!(RuntimeStats, clients_registered),
            offset_of!(RuntimeStats, post_full_retries),
            offset_of!(RuntimeStats, posts_dropped),
            offset_of!(RuntimeStats, service_down),
            offset_of!(RuntimeStats, rebalances),
            offset_of!(RuntimeStats, failovers),
            offset_of!(RuntimeStats, deadlines),
            offset_of!(RuntimeStats, magazine_occupancy),
        ];
        // Every field is at most 8 bytes at a naturally aligned offset,
        // so none straddles a block boundary.
        for s in service {
            for c in client {
                assert_ne!(s / BLOCK, c / BLOCK, "offsets {s} and {c} share a block");
            }
        }
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
        b.post_full_retries.store(5, Ordering::Relaxed);
        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.calls_served, 7);
        assert_eq!(snap.ring_occupancy, 7);
        assert!(snap.service_down);
        assert_eq!(snap.rebalances, 1);
        assert_eq!(snap.posts_dropped, 1);
        assert_eq!(snap.deadlines, 1);
        assert_eq!(snap.post_full_retries, 5);
        assert_eq!(snap.retry_total, 5, "filled from post_full_retries");
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
