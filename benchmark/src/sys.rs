//! What the benchmark asks of the host directly: process CPU time, the
//! client thread's placement, and the identity of the toolchain and
//! checkout.

use std::path::Path;
use std::sync::OnceLock;

use crate::adapter::pin_current_thread_verified;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The core every workload pins its one client thread to.
pub const CLIENT_CORE: usize = 0;

/// The affinity mask the process started with.
static STARTING_MASK: OnceLock<CpuSet> = OnceLock::new();

/// Pins the calling (client) thread to [`CLIENT_CORE`], remembering the
/// mask it had; returns whether the thread was then seen on that core.
pub fn pin_client() -> bool {
    STARTING_MASK.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable cpu_set_t of the size passed; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        mask
    });
    matches!(pin_current_thread_verified(CLIENT_CORE), Ok(true))
}

/// Runs `f` with the client thread's affinity widened back to the mask
/// the process started with, then pins the client again.
///
/// The program reads the host's core count from the *calling thread's*
/// affinity mask (`std::thread::available_parallelism`), and a spawned
/// thread inherits its creator's mask. A tier built from the pinned
/// client would therefore see a one-core host: no service pin, sleeping
/// waits, both threads sharing the client's core. So everything that
/// spawns a thread the benchmark wants on another core runs in here.
pub fn with_starting_affinity<R>(f: impl FnOnce() -> R) -> R {
    let mask = STARTING_MASK.get().expect("pin_client ran first");
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
    let r = f();
    pin_client();
    r
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// CPU seconds this process has consumed, all threads summed — the
/// service thread's spinning included, which is the point.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the layout Linux
    // uses on 64-bit targets; the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `rustc -V`, or `unknown` when no `rustc` is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, read from `.git` beside the benchmark
/// directory without running git; `unknown` in an exported tree.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read(&git.join(r)).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}
