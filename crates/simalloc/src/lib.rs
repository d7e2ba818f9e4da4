//! Allocator policy models over the `ngm-sim` memory-hierarchy simulator.
//!
//! Each model re-implements the *placement policy and metadata traffic* of
//! one allocator family and drives a [`ngm_sim::Machine`] with the memory
//! accesses that policy would perform, so the machine's PMU-style counters
//! reproduce the paper's Tables 1–3 from first principles:
//!
//! | Model | Stands in for | Layout (Fig. 2) | Synchronization |
//! |-------|--------------|------------------|-----------------|
//! | [`PtMalloc2Model`] | Glibc PTMalloc2 | aggregated (boundary tags) | one arena lock |
//! | [`TcMallocModel`] | TCMalloc | intrusive free lists, size-class spans | per-thread cache + central lock |
//! | [`MimallocModel`] | Mimalloc | aggregated page-local lists | atomic thread-delayed free |
//! | [`JemallocModel`] | Jemalloc | run headers + tcache | per-arena lock |
//! | [`NgmModel`] | NextGen-Malloc | segregated, service-core-private | two flag atomics per call, zero heap atomics |
//!
//! There is one NextGen-Malloc type: [`NgmModel::with_tier`] takes the
//! application threads, the service shards, the addresses one handshake
//! fetches and the sync accounting ([`ngm::Protocol`]);
//! [`NgmModel::new`] is the paper's column (one shard, one handshake per
//! malloc). [`CompletionModel`] is a closed-form overlap model of the
//! completion front-end, not an allocator model.
//!
//! The [`driver`] replays an `ngm-workloads` event stream against any
//! model, attributing user `Touch` traffic to the addresses the model
//! chose — which is how placement policy becomes LLC/TLB behaviour.

#![warn(missing_docs)]

pub mod addr;
pub mod completion;
pub mod driver;
pub mod jemalloc;
pub mod layout;
pub mod mimalloc;
pub mod model;
pub mod ngm;
pub mod ptmalloc;
pub mod slab;
pub mod tcmalloc;

pub use completion::CompletionModel;
pub use driver::{run, run_kind, run_kind_warm, run_warm, RunResult};
pub use jemalloc::JemallocModel;
pub use mimalloc::MimallocModel;
pub use model::{AllocModel, ModelKind};
pub use ngm::NgmModel;
pub use ptmalloc::PtMalloc2Model;
pub use tcmalloc::TcMallocModel;
