//! Minimal vendored libc bindings.
//!
//! This workspace builds in hermetic environments with no access to
//! crates.io, so instead of the full `libc` crate we declare exactly the
//! glibc surface the heap, offload, and pmu crates use: anonymous memory
//! mapping, advice and residency, the page-size sysconf, per-thread resource usage,
//! thread affinity, and the raw
//! syscall/ioctl/read/close quartet that `perf_event_open(2)` requires
//! (glibc has no wrapper for that syscall). Constants are the Linux ABI
//! values; everything is gated on `target_os = "linux"`, which is the
//! only platform this repository targets (see DESIGN.md).

#![allow(non_camel_case_types)]
#![allow(non_snake_case)] // CPU_SET/CPU_ZERO/CPU_ISSET are canonical names
#![allow(non_upper_case_globals)] // SYS_perf_event_open is the canonical name
#![cfg(target_os = "linux")]

pub use core::ffi::c_void;

/// C `int`.
pub type c_int = i32;
/// C `long` (LP64).
pub type c_long = i64;
/// C `unsigned long` (LP64).
pub type c_ulong = u64;
/// POSIX `size_t`.
pub type size_t = usize;
/// POSIX `ssize_t`.
pub type ssize_t = isize;
/// POSIX `off_t` (LP64).
pub type off_t = i64;
/// POSIX `pid_t`.
pub type pid_t = i32;

/// Pages may be read.
pub const PROT_READ: c_int = 1;
/// Pages may be written.
pub const PROT_WRITE: c_int = 2;
/// Changes are private to this process.
pub const MAP_PRIVATE: c_int = 0x02;
/// The mapping is not backed by any file.
pub const MAP_ANONYMOUS: c_int = 0x20;
/// `mmap` error return.
pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
/// `madvise` advice: back the range with transparent huge pages.
pub const MADV_HUGEPAGE: c_int = 14;
/// `prctl` option: keep transparent huge pages out of this process,
/// advised ranges included (what `enabled=never` does host-wide).
pub const PR_SET_THP_DISABLE: c_int = 41;
/// `getrusage` target: the calling thread only (Linux-specific).
pub const RUSAGE_THREAD: c_int = 1;
/// `sysconf` name for the VM page size.
pub const _SC_PAGESIZE: c_int = 30;
/// `sysconf` name for the number of processors configured.
pub const _SC_NPROCESSORS_CONF: c_int = 83;

/// Operation not permitted.
pub const EPERM: c_int = 1;
/// No such file or directory (perf: unsupported generic event).
pub const ENOENT: c_int = 2;
/// No such device (perf: PMU hardware absent, e.g. some VMs).
pub const ENODEV: c_int = 19;
/// Permission denied (perf: `perf_event_paranoid` too strict).
pub const EACCES: c_int = 13;
/// Invalid argument.
pub const EINVAL: c_int = 22;
/// Function not implemented (perf: kernel built without perf events, or
/// the syscall filtered by seccomp).
pub const ENOSYS: c_int = 38;
/// Operation not supported.
pub const EOPNOTSUPP: c_int = 95;

/// Syscall number of `perf_event_open(2)`.
#[cfg(target_arch = "x86_64")]
pub const SYS_perf_event_open: c_long = 298;
/// Syscall number of `perf_event_open(2)`.
#[cfg(target_arch = "aarch64")]
pub const SYS_perf_event_open: c_long = 241;
/// Syscall number of `gettid(2)`: the calling thread's id, the `pid`
/// that `perf_event_open` takes to count one thread.
#[cfg(target_arch = "x86_64")]
pub const SYS_gettid: c_long = 186;
/// Syscall number of `gettid(2)`.
#[cfg(target_arch = "aarch64")]
pub const SYS_gettid: c_long = 178;

/// The calling thread's CPU-time clock, for [`clock_gettime`].
pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// Seconds and nanoseconds (LP64 layout).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct timespec {
    /// Whole seconds.
    pub tv_sec: c_long,
    /// Nanoseconds, `0..1_000_000_000`.
    pub tv_nsec: c_long,
}

/// Seconds and microseconds (LP64 layout).
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct timeval {
    /// Whole seconds.
    pub tv_sec: c_long,
    /// Microseconds, `0..1_000_000`.
    pub tv_usec: c_long,
}

/// Resource usage as `getrusage(2)` fills it (LP64 layout: two
/// `timeval`s and fourteen `long`s). Linux maintains only some fields;
/// the rest read 0.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct rusage {
    /// User CPU time.
    pub ru_utime: timeval,
    /// System CPU time.
    pub ru_stime: timeval,
    /// Maximum resident set size, KiB.
    pub ru_maxrss: c_long,
    /// Unmaintained on Linux.
    pub ru_ixrss: c_long,
    /// Unmaintained on Linux.
    pub ru_idrss: c_long,
    /// Unmaintained on Linux.
    pub ru_isrss: c_long,
    /// Page faults served without I/O.
    pub ru_minflt: c_long,
    /// Page faults that needed I/O.
    pub ru_majflt: c_long,
    /// Unmaintained on Linux.
    pub ru_nswap: c_long,
    /// Block input operations.
    pub ru_inblock: c_long,
    /// Block output operations.
    pub ru_oublock: c_long,
    /// Unmaintained on Linux.
    pub ru_msgsnd: c_long,
    /// Unmaintained on Linux.
    pub ru_msgrcv: c_long,
    /// Unmaintained on Linux.
    pub ru_nsignals: c_long,
    /// Voluntary context switches.
    pub ru_nvcsw: c_long,
    /// Involuntary context switches.
    pub ru_nivcsw: c_long,
}

/// Number of `u64` words in a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Fixed-size CPU affinity mask (glibc layout: 1024 bits).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct cpu_set_t {
    bits: [u64; CPU_SET_WORDS],
}

/// Adds `cpu` to the affinity mask.
///
/// # Safety
///
/// `cpuset` must point to a valid, initialized `cpu_set_t`. Out-of-range
/// CPUs are ignored (matching glibc's bounds behaviour).
#[allow(clippy::missing_safety_doc)]
pub unsafe fn CPU_SET(cpu: usize, cpuset: &mut cpu_set_t) {
    if cpu < CPU_SET_WORDS * 64 {
        cpuset.bits[cpu / 64] |= 1u64 << (cpu % 64);
    }
}

/// Removes every CPU from the affinity mask.
///
/// # Safety
///
/// `cpuset` must point to a valid `cpu_set_t`.
#[allow(clippy::missing_safety_doc)]
pub unsafe fn CPU_ZERO(cpuset: &mut cpu_set_t) {
    cpuset.bits = [0; CPU_SET_WORDS];
}

/// Returns whether `cpu` is in the affinity mask.
///
/// # Safety
///
/// `cpuset` must point to a valid, initialized `cpu_set_t`.
#[allow(clippy::missing_safety_doc)]
pub unsafe fn CPU_ISSET(cpu: usize, cpuset: &cpu_set_t) -> bool {
    cpu < CPU_SET_WORDS * 64 && cpuset.bits[cpu / 64] & (1u64 << (cpu % 64)) != 0
}

/// Number of CPUs in the affinity mask.
///
/// # Safety
///
/// `cpuset` must point to a valid, initialized `cpu_set_t`.
#[allow(clippy::missing_safety_doc)]
pub unsafe fn CPU_COUNT(cpuset: &cpu_set_t) -> c_int {
    cpuset.bits.iter().map(|w| w.count_ones()).sum::<u32>() as c_int
}

extern "C" {
    /// Maps pages of memory. See `mmap(2)`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;

    /// Unmaps pages of memory. See `munmap(2)`.
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;

    /// Advises the kernel about a mapped range. See `madvise(2)`.
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;

    /// Reports which pages of a range are resident, one byte per page
    /// (bit 0 set if resident). See `mincore(2)`.
    pub fn mincore(addr: *mut c_void, len: size_t, vec: *mut u8) -> c_int;

    /// Reads clock `clockid` (a per-thread CPU-time clock included).
    /// See `clock_gettime(2)`.
    pub fn clock_gettime(clockid: c_int, tp: *mut timespec) -> c_int;

    /// Reads resource usage of the process, its children or (with
    /// [`RUSAGE_THREAD`]) the calling thread. See `getrusage(2)`.
    pub fn getrusage(who: c_int, usage: *mut rusage) -> c_int;

    /// Operations on the calling process. See `prctl(2)`.
    pub fn prctl(option: c_int, ...) -> c_int;

    /// Queries a system configuration value. See `sysconf(3)`.
    pub fn sysconf(name: c_int) -> c_long;

    /// Sets the CPU affinity of a thread. See `sched_setaffinity(2)`.
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *const cpu_set_t) -> c_int;

    /// Reads the CPU affinity of a thread. See `sched_getaffinity(2)`.
    pub fn sched_getaffinity(pid: pid_t, cpusetsize: size_t, cpuset: *mut cpu_set_t) -> c_int;

    /// Returns the calling process's id — as a `sched_*affinity` target,
    /// its thread-group leader. See `getpid(2)`.
    pub fn getpid() -> pid_t;

    /// Returns the CPU the calling thread runs on. See `sched_getcpu(3)`.
    pub fn sched_getcpu() -> c_int;

    /// Indirect system call. See `syscall(2)`. Used for
    /// `perf_event_open`, which glibc does not wrap.
    pub fn syscall(num: c_long, ...) -> c_long;

    /// Device control. See `ioctl(2)`. Used for the `PERF_EVENT_IOC_*`
    /// enable/disable/reset requests on perf event fds.
    pub fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;

    /// Reads from a file descriptor. See `read(2)`. Used to read perf
    /// counter groups.
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;

    /// Closes a file descriptor. See `close(2)`.
    pub fn close(fd: c_int) -> c_int;

    /// Address of the calling thread's `errno`. See `errno(3)`.
    pub fn __errno_location() -> *mut c_int;
}

/// The calling thread's current `errno` value.
///
/// # Safety
///
/// Always safe to call; named `unsafe`-free here because
/// `__errno_location` has no preconditions on glibc.
#[must_use]
pub fn errno() -> c_int {
    // SAFETY: __errno_location always returns a valid thread-local.
    unsafe { *__errno_location() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_sane() {
        // SAFETY: sysconf with a valid name has no preconditions.
        let sz = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(sz >= 4096, "page size reported as {sz}");
    }

    #[test]
    fn mmap_munmap_roundtrip() {
        // SAFETY: fresh anonymous private mapping, written in bounds and
        // unmapped exactly once.
        unsafe {
            let p = mmap(
                core::ptr::null_mut(),
                4096,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            *(p as *mut u8) = 0xA5;
            assert_eq!(*(p as *mut u8), 0xA5);
            assert_eq!(munmap(p, 4096), 0);
        }
    }

    #[test]
    fn advised_mapping_faults_are_counted_per_thread() {
        const LEN: usize = 4 << 20;
        let minflt = || {
            let mut ru = rusage::default();
            // SAFETY: valid out-parameter, valid target.
            assert_eq!(unsafe { getrusage(RUSAGE_THREAD, &mut ru) }, 0);
            ru.ru_minflt
        };
        // SAFETY: fresh anonymous private mapping; the advised and touched
        // range is the LEN-aligned LEN bytes inside it; unmapped once.
        unsafe {
            let raw = mmap(
                core::ptr::null_mut(),
                2 * LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(raw, MAP_FAILED);
            let base = ((raw as usize + LEN - 1) & !(LEN - 1)) as *mut u8;
            // EINVAL only where the kernel was built without THP.
            let rc = madvise(base.cast(), LEN, MADV_HUGEPAGE);
            assert!(rc == 0 || errno() == EINVAL, "madvise: errno {}", errno());
            let before = minflt();
            for off in (0..LEN).step_by(4096) {
                base.add(off).write_volatile(1);
            }
            let taken = minflt() - before;
            // Two with huge pages, one per 4 KiB page without; a few more
            // if the kernel splits or retries, never none.
            assert!(
                (1..=LEN as c_long / 4096 + 8).contains(&taken),
                "{taken} faults for {LEN} touched bytes"
            );
            assert_eq!(munmap(raw, 2 * LEN), 0);
        }
    }

    #[test]
    fn errno_reflects_failed_close() {
        // SAFETY: closing an invalid fd is harmless and sets errno.
        let rc = unsafe { close(-1) };
        assert_eq!(rc, -1);
        assert_eq!(errno(), 9, "close(-1) sets EBADF");
    }

    #[test]
    fn raw_syscall_works() {
        // SYS_getpid: 39 on x86_64, 172 on aarch64 — use sched_getcpu's
        // value range instead to stay arch-neutral: issue a harmless
        // syscall via the libc wrapper path and compare with the raw one.
        #[cfg(target_arch = "x86_64")]
        const SYS_GETPID: c_long = 39;
        #[cfg(target_arch = "aarch64")]
        const SYS_GETPID: c_long = 172;
        // SAFETY: getpid has no arguments or preconditions.
        let pid = unsafe { syscall(SYS_GETPID) };
        assert_eq!(pid, i64::from(std::process::id()));
    }

    #[test]
    fn cpu_set_bits_roundtrip() {
        // SAFETY: plain bit manipulation on a local mask.
        unsafe {
            let mut set: cpu_set_t = core::mem::zeroed();
            assert!(!CPU_ISSET(3, &set));
            CPU_SET(3, &mut set);
            assert!(CPU_ISSET(3, &set));
            CPU_ZERO(&mut set);
            assert!(!CPU_ISSET(3, &set));
        }
    }
}
