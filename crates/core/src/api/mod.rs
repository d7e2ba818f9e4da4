//! The handle-based public API: [`Ngm`], built from an
//! [`crate::NgmConfig`], serving every thread through routed [`NgmHandle`]s.
//!
//! With `shards > 1` the allocator becomes a *tier* of service cores,
//! each owning a disjoint [`ngm_heap::SegregatedHeap`]. Routing keeps the
//! zero-atomics-per-shard invariant (§3.1.3):
//!
//! * **Allocations** route by size class through a handle-local,
//!   rebalanceable `class → shard` map. Moving the map only redirects
//!   *future* allocations. Non-class (large) layouts route nowhere: the
//!   calling thread maps and unmaps them itself.
//! * **Frees** route by address: the owning shard is stamped into the
//!   segment header at creation ([`ngm_heap::owner_of_small_ptr`]), so a
//!   block always returns to the heap that made it — including after any
//!   rebalance, and including blocks freed on a different thread than
//!   allocated them.
//! * **Saturation** surfaces as full-ring retries on the free path; a
//!   handle that keeps hitting them moves its allocation traffic off
//!   that shard. A missed deadline moves it the same way, and so does a
//!   shard's death: one rule, every class the shard carries going to the
//!   next open shard after it.
//! * **Death** of one shard degrades gracefully: allocations fail over
//!   to survivors, frees owed to the dead shard are dropped and counted
//!   (`posts_dropped`), and the tier keeps serving.

mod handle;
mod routing;
mod slot;
mod tier;

pub use handle::NgmHandle;
pub use tier::{FailureReason, Ngm, NgmShutdown, ShardShutdown};

use std::sync::{Mutex, MutexGuard, PoisonError};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests;
