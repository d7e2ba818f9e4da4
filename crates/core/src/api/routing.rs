//! Allocation routing for an [`NgmHandle`]: the class → shard map and
//! its one rule, [`NgmHandle::move_off`], which every trigger uses — a
//! shard that strains this handle's frees, misses a deadline or dies
//! hands every class it carries to the next open shard.

use ngm_heap::classes::SizeClass;
use ngm_offload::ServiceError;

use super::handle::NgmHandle;
use super::tier::FailureReason;

/// The kind of operation a shard refused, which names the failure event
/// a deadline records. Large blocks are never routed: the calling
/// thread maps and unmaps them itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RouteOp {
    /// A magazine refill.
    Refill,
    /// A free post. Frees route by address, so only the shard's
    /// *allocation* traffic moves.
    Post,
}

impl NgmHandle {
    /// Full-ring retries accumulated against one shard before this handle
    /// moves its allocation traffic elsewhere.
    pub(super) const REBALANCE_PRESSURE: u32 = 64;

    /// Where this handle currently sends allocation traffic for `class`.
    pub fn class_route(&self, class: SizeClass) -> usize {
        self.class_shard[class.0 as usize] as usize
    }

    /// Routes future allocations of `class` to `shard` — the
    /// deterministic hook for tests that interleave explicit class→shard
    /// map migrations with traffic. Frees are unaffected: they route by
    /// address.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn route_class_to(&mut self, class: SizeClass, shard: usize) {
        assert!(shard < self.nshards(), "shard {shard} out of range");
        self.class_shard[class.0 as usize] = shard as u16;
    }

    /// The one routing rule: moves every class this handle routes to
    /// `from` onto the next shard after it that is open and not written
    /// off, and returns that shard; `None` when no other shard is open.
    /// A move off a live shard counts one rebalance against it. Only
    /// *future allocations* move — frees route by address, so blocks
    /// already handed out still drain back to the shard that owns them,
    /// and the accounting stays exact through any number of moves.
    fn move_off(&mut self, from: usize) -> Option<usize> {
        let n = self.nshards();
        let to = (1..n)
            .map(|step| (from + step) % n)
            .find(|&s| !self.ends[s].failed && self.ends[s].client.is_open())?;
        let mut moved = false;
        for slot in self.class_shard.iter_mut().filter(|s| **s as usize == from) {
            *slot = to as u16;
            moved = true;
        }
        if moved && !self.ends[from].failed {
            self.stats(from).record_rebalance();
        }
        Some(to)
    }

    /// The single routing step after `shard` refused an `op` with
    /// `cause`: a deadline (slow, not dead) records a failure event; any
    /// other cause writes the shard off, recording its death and a
    /// failover once. Either way the shard's allocation traffic moves
    /// off it ([`NgmHandle::move_off`]); a deadlined shard rejoins the
    /// rotation as soon as routing sends traffic back its way. Returns
    /// the shard to try next, or `None` when no other shard is open.
    pub(super) fn route(
        &mut self,
        shard: usize,
        cause: ServiceError,
        op: RouteOp,
    ) -> Option<usize> {
        if let ServiceError::Deadline { .. } = cause {
            let reason = match op {
                RouteOp::Refill => FailureReason::Deadline,
                RouteOp::Post => FailureReason::PostDeadline,
            };
            self.tier.record_failure(reason, shard);
        } else if !self.ends[shard].failed {
            self.ends[shard].failed = true;
            self.tier.record_failure(FailureReason::ShardDeath, shard);
            self.stats(shard).record_failover();
        }
        self.move_off(shard)
    }

    /// Accumulates full-ring retries against `shard`; at
    /// [`NgmHandle::REBALANCE_PRESSURE`] the pressure resets and this
    /// handle moves its allocation traffic off the shard.
    pub(super) fn note_pressure(&mut self, shard: usize, retries: u32) {
        if retries > 0 {
            let pressure = &mut self.ends[shard].pressure;
            *pressure = pressure.saturating_add(retries);
            if *pressure >= Self::REBALANCE_PRESSURE {
                *pressure = 0;
                self.move_off(shard);
            }
        }
    }
}
