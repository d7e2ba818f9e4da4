//! Allocation routing for an [`NgmHandle`]: the class → shard map, who
//! is next in line, writing a shard off, rebalancing away from one, and
//! the single [`NgmHandle::route`] step every refused operation goes
//! through.

use std::sync::atomic::Ordering;

use ngm_heap::classes::SizeClass;
use ngm_offload::ServiceError;

use super::handle::NgmHandle;
use super::tier::FailureReason;

/// What an operation that could not proceed on its shard does next, as
/// decided by [`NgmHandle::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Route {
    /// Take the request to this shard.
    Retry(usize),
    /// No other shard is left to try: an allocation degrades to the
    /// inline fallback heap, undeliverable frees go to the owning
    /// shard's orphan stack.
    Exhausted,
}

/// The kind of operation being routed. Large blocks are never routed:
/// the calling thread maps and unmaps them itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RouteOp {
    /// A magazine refill for this class index, whose allocation route
    /// follows the request.
    Refill(usize),
    /// A free post. Frees route by address, so only the shard's
    /// *allocation* traffic moves.
    Post,
}

impl NgmHandle {
    /// Full-ring retries accumulated against one shard before this handle
    /// moves its allocation traffic elsewhere.
    const REBALANCE_PRESSURE: u32 = 64;

    /// The next slot after `from` this handle could route allocations to
    /// (not written off, its ring open); `from` itself when none exists.
    pub(super) fn next_route_candidate(&self, from: usize) -> usize {
        let n = self.nshards();
        (1..n)
            .map(|step| (from + step) % n)
            .find(|&cand| !self.ends[cand].failed && self.ends[cand].client.is_open())
            .unwrap_or(from)
    }

    /// Where this handle currently sends allocation traffic for `class`.
    pub fn class_route(&self, class: SizeClass) -> usize {
        self.class_shard[class.0 as usize] as usize
    }

    /// Routes future allocations of `class` to `shard`, exactly as a
    /// rebalance would — the deterministic
    /// hook for tests that interleave explicit class→shard map migrations
    /// with traffic. Frees are unaffected: they route by address.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn route_class_to(&mut self, class: SizeClass, shard: usize) {
        assert!(shard < self.nshards(), "shard {shard} out of range");
        self.class_shard[class.0 as usize] = shard as u16;
    }

    /// Marks `dead` failed (once), moves its allocation traffic to the
    /// next open shard, and returns that shard (or `dead` itself when no
    /// shard survives).
    pub(super) fn fail_over(&mut self, dead: usize) -> usize {
        let next = self.next_route_candidate(dead);
        if !self.ends[dead].failed {
            self.ends[dead].failed = true;
            self.tier.record_failure(FailureReason::ShardDeath, dead);
            self.stats(dead).record_failover();
            if next != dead {
                for slot in self.class_shard.iter_mut() {
                    if *slot as usize == dead {
                        *slot = next as u16;
                    }
                }
            }
        }
        next
    }

    /// Moves this handle's allocation traffic off `overloaded` onto the
    /// least loaded surviving shard, and resets the pressure signal.
    ///
    /// Called automatically when a shard's free ring keeps saturating;
    /// public so operators can steer traffic by hand. The target is the
    /// shard with the lowest sum of this handle's accumulated
    /// ring-saturation pressure against it and its tier-wide free-ring
    /// backlog, read live from its `ring_occupancy` gauge; ties go to the
    /// lowest index. Only *future allocations* move — frees route by
    /// address, so blocks already handed out still drain back to the
    /// shard that owns them, and the accounting stays exact through any
    /// number of rebalances.
    pub fn rebalance_away_from(&mut self, overloaded: usize) {
        let n = self.nshards();
        self.ends[overloaded].pressure = 0;
        if n == 1 {
            return;
        }
        let target = (0..n)
            .filter(|&s| {
                let end = &self.ends[s];
                s != overloaded && !end.failed && end.client.is_open()
            })
            .min_by_key(|&s| {
                let backlog = self.tier.slots[s]
                    .handles
                    .stats
                    .ring_occupancy
                    .load(Ordering::Relaxed);
                (u64::from(self.ends[s].pressure) + backlog as u64, s)
            });
        let Some(target) = target else {
            return;
        };
        let mut moved = false;
        for slot in self.class_shard.iter_mut() {
            if *slot as usize == overloaded {
                *slot = target as u16;
                moved = true;
            }
        }
        if moved {
            self.stats(overloaded).record_rebalance();
        }
    }

    /// The single routing step: what to do after `shard` refused an
    /// operation with `cause`.
    ///
    /// * [`ServiceError::Deadline`] — slow, not dead: a failure event, move
    ///   this handle's allocation traffic to the coolest shard, try the
    ///   next candidate; the shard rejoins the rotation as soon as
    ///   routing sends traffic back its way;
    /// * anything else — the shard is gone: [`NgmHandle::fail_over`].
    ///
    /// [`Route::Exhausted`] when no other candidate exists.
    pub(super) fn route(&mut self, shard: usize, cause: ServiceError, op: RouteOp) -> Route {
        let next = match cause {
            ServiceError::Deadline { .. } => {
                let reason = if op == RouteOp::Post {
                    FailureReason::PostDeadline
                } else {
                    FailureReason::Deadline
                };
                self.tier.record_failure(reason, shard);
                self.rebalance_away_from(shard);
                self.next_route_candidate(shard)
            }
            _ => self.fail_over(shard),
        };
        if let RouteOp::Refill(ci) = op {
            self.class_shard[ci] = next as u16;
        }
        if next == shard {
            Route::Exhausted
        } else {
            Route::Retry(next)
        }
    }

    /// Accumulates full-ring retries against `shard`; at
    /// [`NgmHandle::REBALANCE_PRESSURE`] this handle moves its allocation
    /// traffic elsewhere.
    pub(super) fn note_pressure(&mut self, shard: usize, retries: u32) {
        if retries > 0 {
            let pressure = &mut self.ends[shard].pressure;
            *pressure = pressure.saturating_add(retries);
            if *pressure >= Self::REBALANCE_PRESSURE {
                self.rebalance_away_from(shard);
            }
        }
    }
}
