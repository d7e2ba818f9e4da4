//! Raw `perf_event_open(2)` counter groups.
//!
//! One [`PerfGroup`] holds one perf fd per available event, attached to a
//! shared group leader so all counters are scheduled onto the PMU
//! together and read back atomically with one `read(2)`. Events the
//! kernel rejects individually (common inside VMs, where cache/TLB events
//! often don't exist) are recorded as unavailable rather than failing the
//! whole group; only a machine where *no* event opens reports
//! [`PmuError`] to the caller, who then falls back to the software
//! backend.

use crate::events::PmuEvent;

/// `perf_event_attr.read_format`: prepend total-enabled time.
const PERF_FORMAT_TOTAL_TIME_ENABLED: u64 = 1 << 0;
/// `read_format`: prepend total-running time (differs from enabled time
/// when the kernel multiplexes more counters than the PMU has slots).
const PERF_FORMAT_TOTAL_TIME_RUNNING: u64 = 1 << 1;
/// `read_format`: read every group member with one syscall.
const PERF_FORMAT_GROUP: u64 = 1 << 3;

/// `perf_event_attr` flag bit: start disabled (we enable explicitly).
const ATTR_DISABLED: u64 = 1 << 0;
/// Flag bit: don't count kernel-mode cycles. Required for unprivileged
/// use at `perf_event_paranoid >= 1` and matches the paper's user-mode
/// workload counts.
const ATTR_EXCLUDE_KERNEL: u64 = 1 << 5;
/// Flag bit: don't count hypervisor-mode cycles.
const ATTR_EXCLUDE_HV: u64 = 1 << 6;

/// `perf_event_open` flag: close the fd on exec.
const PERF_FLAG_FD_CLOEXEC: libc::c_ulong = 1 << 3;

/// `ioctl` requests on perf fds (`_IO('$', 0..3)`).
const PERF_EVENT_IOC_ENABLE: libc::c_ulong = 0x2400;
const PERF_EVENT_IOC_DISABLE: libc::c_ulong = 0x2401;
const PERF_EVENT_IOC_RESET: libc::c_ulong = 0x2403;
/// `ioctl` argument: apply the request to the whole group.
const PERF_IOC_FLAG_GROUP: libc::c_ulong = 1;

/// `perf_event_attr` through `config2` — `PERF_ATTR_SIZE_VER1` (72
/// bytes). Older struct versions are forward-compatible: the kernel
/// treats absent trailing fields as zero.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct PerfEventAttr {
    type_: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    wakeup_events: u32,
    bp_type: u32,
    config1: u64,
    config2: u64,
}

const PERF_ATTR_SIZE_VER1: u32 = 72;

/// Why hardware counting is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmuError {
    /// `perf_event_paranoid` (or an LSM) denies unprivileged counting —
    /// EPERM/EACCES.
    PermissionDenied,
    /// The syscall itself is unavailable: kernel without perf events or a
    /// seccomp filter — ENOSYS.
    NoSyscall,
    /// No requested event exists on this machine (bare PMU-less VMs) —
    /// ENOENT/ENODEV/EOPNOTSUPP/EINVAL on every event.
    NoEvents,
}

impl std::fmt::Display for PmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmuError::PermissionDenied => {
                write!(
                    f,
                    "perf_event_open denied (check /proc/sys/kernel/perf_event_paranoid)"
                )
            }
            PmuError::NoSyscall => write!(f, "perf_event_open unavailable (ENOSYS)"),
            PmuError::NoEvents => write!(f, "no requested PMU event is supported here"),
        }
    }
}

impl std::error::Error for PmuError {}

fn classify(errno: libc::c_int) -> PmuError {
    match errno {
        libc::EPERM | libc::EACCES => PmuError::PermissionDenied,
        libc::ENOSYS => PmuError::NoSyscall,
        _ => PmuError::NoEvents,
    }
}

/// Opens one perf fd for `event` on thread `pid` (0: the calling
/// thread), any CPU, attached to `group_fd` (-1 to lead a new group).
fn open_event(
    event: PmuEvent,
    pid: libc::pid_t,
    group_fd: libc::c_int,
) -> Result<libc::c_int, PmuError> {
    let mut attr = PerfEventAttr {
        type_: event.perf_type(),
        size: PERF_ATTR_SIZE_VER1,
        config: event.perf_config(),
        read_format: PERF_FORMAT_GROUP
            | PERF_FORMAT_TOTAL_TIME_ENABLED
            | PERF_FORMAT_TOTAL_TIME_RUNNING,
        flags: ATTR_DISABLED | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV,
        ..PerfEventAttr::default()
    };
    // Only the leader carries the disabled bit: enabling the leader with
    // PERF_IOC_FLAG_GROUP starts every sibling at once.
    if group_fd != -1 {
        attr.flags &= !ATTR_DISABLED;
    }
    // SAFETY: attr is a valid, fully initialized perf_event_attr and
    // outlives the call; remaining args are plain integers.
    let fd = unsafe {
        libc::syscall(
            libc::SYS_perf_event_open,
            &mut attr as *mut PerfEventAttr,
            pid,
            -1 as libc::c_int, // any CPU
            group_fd,
            PERF_FLAG_FD_CLOEXEC,
        )
    };
    if fd < 0 {
        Err(classify(libc::errno()))
    } else {
        Ok(fd as libc::c_int)
    }
}

/// A group of hardware counters attached to one thread.
///
/// The group counts only while between [`PerfGroup::enable`] and
/// [`PerfGroup::disable`], which any thread may call;
/// [`PerfGroup::read_counts`] may be called at any time, also after the
/// counted thread has exited. The counters tick only while the thread
/// the group was opened for runs.
#[derive(Debug)]
pub struct PerfGroup {
    /// Group leader fd (first successfully opened event).
    leader: libc::c_int,
    /// `(event, fd)` in attach order — the order `read` returns values.
    members: Vec<(PmuEvent, libc::c_int)>,
    /// Events this machine rejected at open.
    unavailable: Vec<PmuEvent>,
}

impl PerfGroup {
    /// Opens a group counting `events` on thread `pid`: an OS thread id
    /// (`gettid(2)`), or 0 for the calling thread.
    ///
    /// Individual events the kernel rejects are recorded in
    /// [`PerfGroup::unavailable_events`]; the open only errs when *no*
    /// event can be counted.
    ///
    /// # Errors
    ///
    /// [`PmuError`] describing why hardware counting is impossible here.
    pub fn open(events: &[PmuEvent], pid: libc::pid_t) -> Result<PerfGroup, PmuError> {
        let mut group = PerfGroup {
            leader: -1,
            members: Vec::with_capacity(events.len()),
            unavailable: Vec::new(),
        };
        let mut last_err = PmuError::NoEvents;
        for &e in events {
            match open_event(e, pid, group.leader) {
                Ok(fd) => {
                    if group.leader == -1 {
                        group.leader = fd;
                    }
                    group.members.push((e, fd));
                }
                Err(err) => {
                    // Permission and missing-syscall failures are
                    // machine-wide: no later event will fare better.
                    if err != PmuError::NoEvents {
                        group.close_all();
                        return Err(err);
                    }
                    last_err = err;
                    group.unavailable.push(e);
                }
            }
        }
        if group.members.is_empty() {
            return Err(last_err);
        }
        Ok(group)
    }

    /// Events that could not be opened on this machine.
    #[must_use]
    pub fn unavailable_events(&self) -> &[PmuEvent] {
        &self.unavailable
    }

    /// Zeroes and starts every counter in the group.
    pub fn enable(&self) {
        // SAFETY: leader is a live perf fd owned by self.
        unsafe {
            libc::ioctl(self.leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
            libc::ioctl(self.leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        }
    }

    /// Stops every counter in the group (counts are retained for
    /// reading).
    pub fn disable(&self) {
        // SAFETY: leader is a live perf fd owned by self.
        unsafe {
            libc::ioctl(self.leader, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
        }
    }

    /// Reads the whole group with one syscall.
    ///
    /// # Errors
    ///
    /// [`PmuError::NoEvents`] if the kernel returns a malformed buffer
    /// (never observed in practice; defensive).
    pub fn read_counts(&self) -> Result<GroupCounts, PmuError> {
        // Layout with GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING:
        // { nr, time_enabled, time_running, value[nr] }.
        let words = 3 + self.members.len();
        let mut buf = vec![0u64; words];
        // SAFETY: buf is a writable buffer of exactly `words * 8` bytes.
        let n = unsafe {
            libc::read(
                self.leader,
                buf.as_mut_ptr().cast::<libc::c_void>(),
                words * 8,
            )
        };
        if n < 24 {
            return Err(PmuError::NoEvents);
        }
        let nr = buf[0] as usize;
        if nr != self.members.len() || (n as usize) < (3 + nr) * 8 {
            return Err(PmuError::NoEvents);
        }
        let mut counts = GroupCounts {
            time_enabled: buf[1],
            time_running: buf[2],
            values: Vec::with_capacity(nr),
        };
        for (i, &(event, _)) in self.members.iter().enumerate() {
            counts.values.push((event, buf[3 + i]));
        }
        Ok(counts)
    }

    fn close_all(&mut self) {
        for &(_, fd) in &self.members {
            // SAFETY: fd is a live perf fd owned by self, closed once.
            unsafe { libc::close(fd) };
        }
        self.members.clear();
        self.leader = -1;
    }
}

impl Drop for PerfGroup {
    fn drop(&mut self) {
        self.close_all();
    }
}

/// One raw group read: times plus `(event, raw count)` pairs in attach
/// order. Counts are unscaled; multiplexing correction happens in
/// [`crate::PmuReading`].
#[derive(Debug, Clone)]
pub struct GroupCounts {
    /// Nanoseconds the group was enabled.
    pub time_enabled: u64,
    /// Nanoseconds the group was actually counting (less than enabled
    /// when the kernel multiplexed it off the PMU).
    pub time_running: u64,
    /// Raw counter values by event.
    pub values: Vec<(PmuEvent, u64)>,
}

/// Probes whether hardware counting works here (opens and closes a
/// minimal cycles counter).
///
/// # Errors
///
/// The [`PmuError`] a real session would hit.
pub fn hardware_available() -> Result<(), PmuError> {
    PerfGroup::open(&[PmuEvent::Cycles], 0).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_layout_matches_abi() {
        assert_eq!(std::mem::size_of::<PerfEventAttr>(), 72);
        assert_eq!(std::mem::offset_of!(PerfEventAttr, config), 8);
        assert_eq!(std::mem::offset_of!(PerfEventAttr, read_format), 32);
        assert_eq!(std::mem::offset_of!(PerfEventAttr, flags), 40);
        assert_eq!(std::mem::offset_of!(PerfEventAttr, config1), 56);
    }

    #[test]
    fn probe_and_group_agree() {
        // Whatever this machine supports, the probe and a full-group open
        // must agree on availability.
        match hardware_available() {
            Ok(()) => {
                let g = PerfGroup::open(&PmuEvent::ALL, 0).expect("probe said hardware works");
                g.enable();
                // A little real work so cycles accumulate.
                let mut acc = 0u64;
                for i in 0..100_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                std::hint::black_box(acc);
                g.disable();
                let counts = g.read_counts().expect("group read");
                let cycles = counts
                    .values
                    .iter()
                    .find(|(e, _)| *e == PmuEvent::Cycles)
                    .map(|&(_, v)| v);
                assert!(cycles.is_some_and(|c| c > 0), "cycles counted: {counts:?}");
                assert!(counts.time_enabled > 0);
            }
            Err(e) => {
                // Fallback environments (CI, seccomp sandboxes) must
                // produce a *classified* error, not a panic.
                assert!(matches!(
                    e,
                    PmuError::PermissionDenied | PmuError::NoSyscall | PmuError::NoEvents
                ));
            }
        }
    }
}
