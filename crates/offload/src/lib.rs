//! Offload runtime for NextGen-Malloc: the machinery that gives a service
//! function "its own room in the house".
//!
//! The paper's prototype (§4.2) spawns a child thread, pins it to a specific
//! core, and has the main thread hand over `malloc()`/`free()` requests
//! through a pair of atomic flags (`malloc_start` / `malloc_done`). This
//! crate generalizes that design:
//!
//! * [`slot::RequestSlot`] — the paper's two-flag synchronous mailbox, one
//!   per client thread.
//! * [`ring::spsc`] — a bounded single-producer/single-consumer ring of
//!   variable-length records in 64-byte cells, for fire-and-forget
//!   messages (asynchronous `free()`, §3.1.2: "the entire free phase is
//!   not on the critical path").
//! * [`pin`] — `sched_setaffinity`-based core pinning with graceful
//!   fallback when the machine has too few cores.
//! * [`wait::WaitStrategy`] — spin / spin-then-yield / park policies for
//!   both sides of the channel.
//! * [`service`] — a generic [`service::Service`] trait plus
//!   [`service::OffloadRuntime`], the dedicated service thread that owns all
//!   the metadata (§3.3.2 notes the same machinery fits other management
//!   functions).

#![warn(missing_docs)]

pub mod error;
#[cfg(feature = "faultinject")]
pub mod fault;
pub mod pad;
pub mod pin;
pub mod ring;
pub mod service;
pub mod slot;
pub mod stats;
pub mod telemetry;
pub mod wait;

pub use error::ServiceError;
#[cfg(feature = "faultinject")]
pub use fault::{FaultAction, FaultState};
pub use pad::CachePadded;
pub use pin::{available_cores, pin_current_thread, pin_current_thread_verified, PinError};
pub use ring::{spsc, Consumer, Producer, Record, CELL_BYTES, DEFAULT_RING_CELLS};
pub use service::{
    CallKind, ClientHandle, OffloadRuntime, RuntimeConfig, RuntimeHandles, Service, ShardFailure,
    ShardHealth, DEFAULT_DEADLINE,
};
pub use slot::RequestSlot;
pub use stats::{RuntimeStats, StatsSnapshot};
pub use telemetry::{RuntimeTelemetry, PHASES, PHASE_NAMES};
pub use wait::{WaitPhase, WaitState, WaitStrategy};
