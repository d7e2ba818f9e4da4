//! Core pinning via `sched_setaffinity`.
//!
//! The paper's prototype pins the spawned allocator thread to a specific
//! core so that all allocator metadata stays in that core's private caches.
//! On machines with too few cores pinning still succeeds but provides no
//! isolation; callers can consult [`available_cores`] and record the
//! outcome in their stats rather than failing hard.

use std::fmt;
use std::io;

/// Why a pin request could not be satisfied.
#[derive(Debug)]
pub enum PinError {
    /// The requested core ID is outside the machine's CPU set.
    NoSuchCore {
        /// The core that was requested.
        requested: usize,
        /// How many cores the machine exposes.
        available: usize,
    },
    /// The kernel rejected the affinity change.
    Os(io::Error),
    /// The platform does not support thread affinity.
    Unsupported,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::NoSuchCore {
                requested,
                available,
            } => write!(
                f,
                "cannot pin to core {requested}: machine exposes {available} cores"
            ),
            PinError::Os(e) => write!(f, "sched_setaffinity failed: {e}"),
            PinError::Unsupported => write!(f, "thread affinity unsupported on this platform"),
        }
    }
}

impl std::error::Error for PinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PinError::Os(e) => Some(e),
            _ => None,
        }
    }
}

/// Number of logical cores the calling process may run on.
///
/// Read from the affinity mask of the thread-group leader, not of the
/// calling thread: a thread that pinned itself before building a tier
/// must still see the whole host (or the service gets no core of its
/// own and time-slices the caller's), while a process confined from
/// outside (`taskset -c 0 …`) still sees only what it was given.
#[cfg(target_os = "linux")]
pub fn available_cores() -> usize {
    // SAFETY: `cpu_set_t` is a plain bitmask; zeroed is a valid empty set.
    let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    // SAFETY: `set` is a writable cpu_set_t of the size passed; the pid
    // is this process's own.
    let rc = unsafe {
        libc::sched_getaffinity(
            libc::getpid(),
            std::mem::size_of::<libc::cpu_set_t>(),
            &mut set,
        )
    };
    if rc != 0 {
        return parallelism();
    }
    // SAFETY: `set` is initialized (zeroed, then filled by the kernel).
    let count = unsafe { libc::CPU_COUNT(&set) };
    usize::try_from(count).unwrap_or(0).max(1)
}

/// Number of logical cores the calling process may run on.
#[cfg(not(target_os = "linux"))]
pub fn available_cores() -> usize {
    parallelism()
}

fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `core`.
///
/// Returns `Ok(())` when the kernel accepted the affinity mask. On single-
/// core machines, pinning to core 0 succeeds trivially.
///
/// # Errors
///
/// [`PinError::NoSuchCore`] when `core` is beyond the machine's CPU count,
/// [`PinError::Os`] when the syscall fails, and [`PinError::Unsupported`]
/// on non-Linux platforms.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(core: usize) -> Result<(), PinError> {
    // Bounded by the machine, not by anyone's affinity mask: a service
    // thread pins itself after its builder may have narrowed its own
    // mask again. A core the process may not use is the kernel's to
    // refuse.
    // SAFETY: sysconf with a valid name has no preconditions.
    let configured = unsafe { libc::sysconf(libc::_SC_NPROCESSORS_CONF) };
    let available = usize::try_from(configured).unwrap_or(0).max(1);
    if core >= available {
        return Err(PinError::NoSuchCore {
            requested: core,
            available,
        });
    }
    // SAFETY: `cpu_set_t` is a plain bitmask; zeroed is a valid empty set.
    let mut set: libc::cpu_set_t = unsafe { std::mem::zeroed() };
    // SAFETY: `core` was bounds-checked against the machine's CPU count and
    // CPU_SET only writes within the fixed-size `cpu_set_t`.
    unsafe { libc::CPU_SET(core, &mut set) };
    // SAFETY: pid 0 addresses the calling thread; `set` is a valid,
    // initialized cpu_set_t of the size we pass.
    let rc = unsafe {
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set as *const _)
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(PinError::Os(io::Error::last_os_error()))
    }
}

/// Pins the calling thread to `core` (unsupported on this platform).
///
/// # Errors
///
/// Always returns [`PinError::Unsupported`].
#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_core: usize) -> Result<(), PinError> {
    Err(PinError::Unsupported)
}

/// How many migration checks [`pin_current_thread_verified`] makes before
/// concluding the scheduler is not going to move us.
const PIN_VERIFY_RETRIES: u32 = 128;

/// Pins the calling thread to `core` and *verifies* the migration landed.
///
/// `sched_setaffinity` only updates the affinity mask; the scheduler
/// migrates the thread at its own pace, so a single `yield_now()` after
/// pinning is not enough to guarantee `sched_getcpu()` reports the target
/// core. This form retries a bounded number of times, yielding between
/// probes, and returns whether the thread was actually observed on
/// `core`. If the migration never lands it *warns* on stderr rather than
/// panicking — a mispinned service thread is slower, not wrong.
///
/// Returns `Ok(true)` when the thread was observed on `core`, `Ok(false)`
/// when the mask was installed but the migration was never observed
/// (including platforms where `sched_getcpu` is unavailable).
///
/// # Errors
///
/// Same as [`pin_current_thread`].
pub fn pin_current_thread_verified(core: usize) -> Result<bool, PinError> {
    pin_current_thread(core)?;
    if current_core() == Some(core) {
        return Ok(true);
    }
    for _ in 0..PIN_VERIFY_RETRIES {
        std::thread::yield_now();
        if current_core() == Some(core) {
            return Ok(true);
        }
    }
    eprintln!(
        "ngm-offload: affinity mask for core {core} installed but thread still on \
         {:?} after {PIN_VERIFY_RETRIES} checks; continuing unverified",
        current_core()
    );
    Ok(false)
}

/// Returns the core the calling thread is currently running on, if the
/// platform exposes it.
#[cfg(target_os = "linux")]
pub fn current_core() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and returns -1 on error.
    let cpu = unsafe { libc::sched_getcpu() };
    usize::try_from(cpu).ok()
}

/// Returns the core the calling thread is currently running on, if the
/// platform exposes it.
#[cfg(not(target_os = "linux"))]
pub fn current_core() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_core() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn pin_to_core_zero_succeeds() {
        // Core 0 always exists.
        pin_current_thread(0).expect("pinning to core 0 must succeed");
    }

    #[test]
    fn pin_to_absurd_core_fails_cleanly() {
        let err = pin_current_thread(100_000).unwrap_err();
        match err {
            PinError::NoSuchCore {
                requested,
                available,
            } => {
                assert_eq!(requested, 100_000);
                assert!(available >= 1);
            }
            PinError::Unsupported => {}
            PinError::Os(_) => panic!("bounds check should fire before the syscall"),
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn current_core_reports_after_verified_pin() {
        // Regression: the old form assumed one yield_now() completed the
        // migration, which is scheduler-dependent and flaked. The verified
        // form retries a bounded number of times and tells us whether the
        // migration was actually observed.
        let landed = pin_current_thread_verified(0).unwrap();
        if landed {
            assert_eq!(current_core(), Some(0));
        }
    }

    #[test]
    fn verified_pin_to_absurd_core_fails_cleanly() {
        assert!(pin_current_thread_verified(100_000).is_err());
    }

    #[test]
    fn pin_error_display_is_informative() {
        let e = PinError::NoSuchCore {
            requested: 9,
            available: 1,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('1'));
    }
}
