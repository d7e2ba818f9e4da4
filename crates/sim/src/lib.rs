//! Trace-driven memory-hierarchy simulator for the NextGen-Malloc reproduction.
//!
//! The paper's evaluation (Tables 1–3) is expressed in hardware PMU counters:
//! cycles, instructions, LLC load/store misses, and dTLB load/store misses.
//! This crate provides a deterministic, software-only stand-in for those
//! counters: a machine with per-core L1d and L2 caches, per-core dTLB and
//! STLB, a shared last-level cache with MESI-style invalidation, a page-walk
//! model, and a cycle cost model that includes the atomic-RMW latency the
//! paper builds its §4.1 argument on.
//!
//! Allocator models (see the `ngm-simalloc` crate) and workload generators
//! drive the machine with [`Access`] events; experiments read back
//! [`PmuCounters`] per core or aggregated.
//!
//! # Examples
//!
//! ```
//! use ngm_sim::{Access, AccessClass, Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::a72(2));
//! m.access(0, Access::load(0x1000, 8, AccessClass::User));
//! m.retire(0, 10); // ten non-memory instructions
//! assert!(m.core_counters(0).cycles > 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod coherence;
pub mod config;
pub mod counters;
pub mod machine;
pub mod tlb;
pub mod trace;

pub use cache::Cache;
pub use config::{CacheConfig, CoreConfig, CoreType, CostModel, MachineConfig, TlbConfig};
pub use counters::PmuCounters;
pub use machine::Machine;
pub use tlb::Tlb;
pub use trace::{Access, AccessClass, AccessKind};

/// Cache-line size used throughout the simulator, in bytes.
pub const LINE_SIZE: u64 = 64;

/// Page size used by the TLB model, in bytes.
pub const PAGE_SIZE: u64 = 4096;
