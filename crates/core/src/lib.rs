//! NextGen-Malloc: a memory allocator with its own room in the house.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: all `malloc`/`free` work executes on a tier of one
//! or more dedicated service threads (each pinned to its own core when
//! the machine has one to spare), each operating a disjoint
//! [`ngm_heap::SegregatedHeap`] whose metadata is decoupled from user
//! data and which — being single-owner — contains no atomic operations
//! at all.
//!
//! * Allocation is synchronous: the calling thread publishes a request in
//!   its [`ngm_offload::RequestSlot`] and spins/parks for the response
//!   (§4.2's `malloc_start`/`malloc_done` protocol).
//! * Deallocation is asynchronous: `free` posts to an SPSC ring on the
//!   *owning* shard (routed by address) and returns immediately (§3.1.2:
//!   the free phase is off the critical path).
//! * Large (non-class) blocks never enter the room: each is a dedicated
//!   mapping made and released on the calling thread, as in the paper's
//!   prototype — the kernel already serializes them.
//!
//! There is one request path, `alloc` / `dealloc` on an [`NgmHandle`].
//! [`SubmissionQueue`] is a blocking shell over it whose futures are
//! ready on their first poll; it survives only until ROADMAP item 1(b)
//! stops the benchmark binding it.
//!
//! Three ways to use it:
//!
//! 1. [`NgmConfig`] → [`Ngm`] + [`NgmHandle`] — explicit handles, full
//!    control over shard count, placement, batching, and telemetry.
//! 2. [`NgmAllocator`] — a `GlobalAlloc` you can install with
//!    `#[global_allocator]`.
//! 3. [`service::MallocService`] directly on
//!    [`ngm_offload::OffloadRuntime`] for custom wiring.

#![warn(missing_docs)]

pub mod api;
pub mod bootstrap;
pub mod config;
pub mod global;
pub mod nonblocking;
pub mod observer;
pub mod service;
pub mod watch;

pub use api::{FailureReason, Ngm, NgmHandle, NgmShutdown, ShardShutdown};
pub use config::{
    CorePlacement, NgmConfig, NgmError, ObserverConfig, FALLBACK_OWNER, MAX_SHARDS, OWNER_BASE,
};
pub use global::NgmAllocator;
pub use nonblocking::SubmissionQueue;
pub use observer::{derive_readiness, Observer, Readiness};
pub use service::{AddrBatch, AllocBatchReq, FreePost, MallocService, ServiceStats, MAX_BATCH};
pub use watch::SharedHeapStats;
