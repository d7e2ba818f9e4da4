//! Hardware PMU counter harness for NextGen-Malloc.
//!
//! The paper's evidence is PMU counters — Table 1 (cycles, instructions,
//! LLC and dTLB misses for `xalancbmk`) and Table 2 (`xmalloc` vs thread
//! count). The rest of this repository *simulates* those counters; this
//! crate measures them on the machine actually running, so the simulator
//! can be checked against silicon:
//!
//! * [`PerfGroup`] — a dependency-free `perf_event_open(2)` wrapper
//!   (the syscall and ioctls come from the vendored `shims/libc`):
//!   one counter group for cycles, instructions, LLC-load/store misses,
//!   and dTLB-load/store misses, read atomically with one syscall and
//!   corrected for kernel multiplexing via `time_enabled`/`time_running`.
//! * [`PmuSession`] — scoped start/stop/read guards over a backend
//!   chosen once, counting the calling thread or any other thread of
//!   the process: hardware when the syscall works, otherwise
//!   [`SoftwareCounters`] (the counted thread's CPU time in cycles,
//!   from its CPU-time clock, plus caller-fed values —
//!   the repro harness feeds the cache/TLB simulator) so every caller
//!   works everywhere: EPERM from `perf_event_paranoid`, ENOSYS from
//!   seccomp, PMU-less VMs, CI.
//! * [`PmuReport`] — Table 1/2-shaped rendering in which every column is labeled with the backend that produced it
//!   (`/hw` vs `/sw`); fallback numbers can never masquerade as
//!   hardware.

#![warn(missing_docs)]
#![cfg(target_os = "linux")]

pub mod events;
pub mod perf;
pub mod report;
pub mod session;
pub mod software;

pub use events::PmuEvent;
pub use perf::{hardware_available, PerfGroup, PmuError};
pub use report::{PmuColumn, PmuReport};
pub use session::{BackendKind, PmuReading, PmuSession, RunningSession};
pub use software::SoftwareCounters;
