//! Umbrella crate for the NextGen-Malloc reproduction.
//!
//! Re-exports the workspace's public surface so downstream users can
//! depend on one crate; the workspace-spanning integration tests and the
//! runnable examples live here. See the individual crates for the actual
//! implementations:
//!
//! * [`ngm_core`] — the offloaded allocator (the paper's contribution).
//! * [`ngm_offload`] — the dedicated-core service runtime.
//! * [`ngm_heap`] — real mmap-backed heaps with self-hosted metadata.
//! * [`ngm_sim`] / [`ngm_simalloc`] — the A72-class simulator and the
//!   allocator policy models that regenerate the paper's tables.
//! * [`ngm_workloads`] — workload generators.
//! * [`ngm_model`] — §4.1's analytical break-even model.
//! * [`ngm_bench`] — the `repro` harness.

pub use ngm_bench as bench;
pub use ngm_core as core;
pub use ngm_heap as heap;
pub use ngm_model as model;
pub use ngm_offload as offload;
pub use ngm_sim as sim;
pub use ngm_simalloc as simalloc;
pub use ngm_workloads as workloads;
