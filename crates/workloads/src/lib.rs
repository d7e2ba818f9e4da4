//! Workload generators for the NextGen-Malloc reproduction.
//!
//! Every workload is a deterministic stream of [`Event`]s — allocations,
//! frees, touches of allocated memory, and pure compute — that can be
//! replayed either against the cache-simulator allocator models
//! (`ngm-simalloc`) to regenerate the paper's PMU tables, or against the
//! real heaps (`ngm-heap`, `ngm-core`) for wall-clock measurements.
//!
//! The stable of workloads is the paper's evaluation plus one
//! parameterized stream:
//!
//! * [`xalanc`] — a synthetic stand-in for SPEC CPU2017's `xalancbmk`
//!   (XML transformation: allocation-heavy tree building and string
//!   churn, ~2 % of instructions in malloc/free). Figure 1, Tables 1 & 3.
//! * [`xmalloc`] — Lever & Boreham's cross-thread-free stress: "a thread
//!   allocates data but a different thread deallocates". Table 2.
//! * [`churn`] — parameterized random churn for property tests and
//!   ablations.

#![warn(missing_docs)]

pub mod churn;
pub mod events;
pub mod xalanc;
pub mod xmalloc;

pub use events::{Event, StreamSummary};
