//! Scoped measurement sessions over either backend.

use ngm_telemetry::clock;

use crate::events::PmuEvent;
use crate::perf::PerfGroup;
use crate::software::SoftwareCounters;

/// Which machinery produced a reading. Every report row is labeled with
/// this, so software-fallback numbers can never masquerade as hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Real PMU counters via `perf_event_open(2)`.
    Hardware,
    /// The [`SoftwareCounters`] fallback: the counted thread's CPU time
    /// in cycles plus whatever counters the caller feeds (the cache/TLB
    /// simulator in the repro harness).
    Software,
}

impl BackendKind {
    /// Short label used in report column headers (`hw` / `sw`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Hardware => "hw",
            BackendKind::Software => "sw",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Hardware => write!(f, "hardware"),
            BackendKind::Software => write!(f, "software"),
        }
    }
}

/// One finished measurement: scaled counts per event plus enough
/// bookkeeping to judge their quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmuReading {
    /// Which backend produced these numbers.
    pub backend: BackendKind,
    /// Scaled counts indexed by [`PmuEvent::index`]; `None` when the
    /// event could not be counted on this machine.
    pub counts: [Option<u64>; 6],
    /// Nanoseconds the group was scheduled (hardware) or measured
    /// (software; TSC-derived, approximate).
    pub time_enabled_ns: u64,
    /// Nanoseconds the group was actually counting.
    pub time_running_ns: u64,
}

impl PmuReading {
    /// An empty software reading (all counters present but zero).
    #[must_use]
    pub fn empty_software() -> Self {
        PmuReading {
            backend: BackendKind::Software,
            counts: [Some(0); 6],
            time_enabled_ns: 0,
            time_running_ns: 0,
        }
    }

    /// The scaled count for `event`, if it was measurable.
    #[must_use]
    pub fn get(&self, event: PmuEvent) -> Option<u64> {
        self.counts[event.index()]
    }

    /// Whether the kernel time-multiplexed this group (counts were scaled
    /// up by `time_enabled / time_running` and are estimates).
    #[must_use]
    pub fn multiplexed(&self) -> bool {
        self.time_running_ns > 0 && self.time_running_ns < self.time_enabled_ns
    }

    /// Misses per kilo-instruction for `event`, when both it and the
    /// instruction count were measured.
    #[must_use]
    pub fn mpki(&self, event: PmuEvent) -> Option<f64> {
        let instr = self.get(PmuEvent::Instructions)?;
        if instr == 0 {
            return None;
        }
        Some(self.get(event)? as f64 * 1000.0 / instr as f64)
    }

    /// Element-wise sum (unmeasurable events stay unmeasurable; the
    /// merged reading is hardware only if both inputs were).
    #[must_use]
    pub fn merge(&self, other: &PmuReading) -> PmuReading {
        let mut counts = [None; 6];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = match (self.counts[i], other.counts[i]) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
        PmuReading {
            backend: if self.backend == other.backend {
                self.backend
            } else {
                BackendKind::Software
            },
            counts,
            time_enabled_ns: self.time_enabled_ns + other.time_enabled_ns,
            time_running_ns: self.time_running_ns + other.time_running_ns,
        }
    }
}

enum BackendImpl {
    Hw(PerfGroup),
    /// The fallback and the CPU-time clock of the thread it counts.
    Sw(SoftwareCounters, libc::c_int),
}

/// A reusable measurement session: `start` → work → `stop` → reading.
///
/// Construction picks the backend once; each `start`/`stop` cycle resets
/// and re-reads the counters. A hardware session counts the one thread
/// it was opened for ([`PmuSession::new`]: the calling thread;
/// [`PmuSession::for_thread`]: any thread of this process), whichever
/// thread starts and stops it.
pub struct PmuSession {
    backend: BackendImpl,
}

impl std::fmt::Debug for PmuSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmuSession")
            .field("backend", &self.backend_kind())
            .finish()
    }
}

impl PmuSession {
    /// Opens a hardware session on the calling thread, falling back to
    /// software when `perf_event_open` is unavailable (EPERM, ENOSYS,
    /// PMU-less VM, …). Every caller works everywhere; check
    /// [`PmuSession::backend_kind`] / the reading's label for which
    /// numbers you got.
    #[must_use]
    pub fn new() -> Self {
        Self::for_thread(0)
    }

    /// As [`PmuSession::new`], but counting thread `tid` (an OS thread id
    /// of this process, as `gettid(2)` returns it; 0 is the thread that
    /// starts and stops the session) — so a harness can measure a thread
    /// it does not run, such as an allocator's service loop. The software
    /// fallback counts that thread too: its cycles are the CPU time
    /// `tid`'s CPU-time clock counted between start and stop, converted
    /// at [`clock::cycles_per_ns`], so a thread that slept reads near
    /// zero however long the interval. A thread that exited before a
    /// read reads zero.
    #[must_use]
    pub fn for_thread(tid: libc::pid_t) -> Self {
        match PerfGroup::open(&PmuEvent::ALL, tid) {
            Ok(g) => PmuSession {
                backend: BackendImpl::Hw(g),
            },
            Err(_) => Self::software_for(tid),
        }
    }

    /// Opens a software session on the thread that starts and stops it
    /// (used directly in tests and by the repro harness when it wants the
    /// sim-fed backend explicitly).
    #[must_use]
    pub fn software() -> Self {
        Self::software_for(0)
    }

    /// A software session counting thread `tid` (0: the reading thread)
    /// by its CPU-time clock, the clock id glibc's
    /// `pthread_getcpuclockid` builds for it.
    fn software_for(tid: libc::pid_t) -> Self {
        let clock = if tid == 0 {
            libc::CLOCK_THREAD_CPUTIME_ID
        } else {
            (!tid << 3) | 6
        };
        PmuSession {
            backend: BackendImpl::Sw(SoftwareCounters::new(), clock),
        }
    }

    /// Which backend this session measures with.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        match &self.backend {
            BackendImpl::Hw(_) => BackendKind::Hardware,
            BackendImpl::Sw(..) => BackendKind::Software,
        }
    }

    /// Events this session cannot measure (hardware sessions on machines
    /// whose PMU lacks some events; empty for software sessions, which
    /// report every event).
    #[must_use]
    pub fn unavailable_events(&self) -> &[PmuEvent] {
        match &self.backend {
            BackendImpl::Hw(g) => g.unavailable_events(),
            BackendImpl::Sw(..) => &[],
        }
    }

    /// Feeds a software counter (no-op on hardware sessions). The repro
    /// harness feeds the cache/TLB simulator's counters here so a
    /// fallback reading still has the full Table 1 shape.
    pub fn feed(&mut self, event: PmuEvent, value: u64) {
        if let BackendImpl::Sw(sw, _) = &mut self.backend {
            sw.feed(event, value);
        }
    }

    /// Starts counting; the returned guard stops it.
    pub fn start(&mut self) -> RunningSession<'_> {
        self.begin();
        RunningSession { session: self }
    }

    /// Starts counting without a guard — for sessions embedded in
    /// long-lived structs (e.g. a client handle measuring its whole
    /// lifetime) where a borrowing guard cannot be stored alongside the
    /// session. Pair with [`PmuSession::finish`].
    pub fn begin(&mut self) {
        match &mut self.backend {
            BackendImpl::Hw(g) => g.enable(),
            BackendImpl::Sw(sw, cpu) => sw.start(cpu_cycles(*cpu), now_ns()),
        }
    }

    /// Stops counting and returns the scaled reading (the pair of
    /// [`PmuSession::begin`]).
    pub fn finish(&mut self) -> PmuReading {
        match &mut self.backend {
            BackendImpl::Hw(g) => {
                g.disable();
                match g.read_counts() {
                    Ok(raw) => {
                        let mut counts = [None; 6];
                        for (event, value) in &raw.values {
                            counts[event.index()] =
                                Some(scale(*value, raw.time_enabled, raw.time_running));
                        }
                        PmuReading {
                            backend: BackendKind::Hardware,
                            counts,
                            time_enabled_ns: raw.time_enabled,
                            time_running_ns: raw.time_running,
                        }
                    }
                    // A failed read degrades to an absent reading rather
                    // than panicking mid-measurement.
                    Err(_) => PmuReading {
                        backend: BackendKind::Hardware,
                        counts: [None; 6],
                        time_enabled_ns: 0,
                        time_running_ns: 0,
                    },
                }
            }
            BackendImpl::Sw(sw, cpu) => sw.stop(cpu_cycles(*cpu), now_ns()),
        }
    }
}

impl Default for PmuSession {
    fn default() -> Self {
        Self::new()
    }
}

/// CPU time CPU-time clock `cpu` has counted, in cycles; 0 when it
/// cannot be read (its thread exited).
fn cpu_cycles(cpu: libc::c_int) -> u64 {
    let mut ts = libc::timespec::default();
    // SAFETY: `ts` is a valid, writable timespec.
    if unsafe { libc::clock_gettime(cpu, &mut ts) } != 0 {
        return 0;
    }
    let ns = ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
    (ns as f64 * clock::cycles_per_ns()) as u64
}

/// Monotonic nanoseconds for the software backend's enabled-time field.
fn now_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Guard over a counting interval. [`RunningSession::stop`] returns the
/// reading; dropping the guard stops counting without reading.
#[must_use = "stop() returns the reading; dropping discards the interval"]
pub struct RunningSession<'a> {
    session: &'a mut PmuSession,
}

impl RunningSession<'_> {
    /// Stops the counters and returns the scaled reading.
    pub fn stop(self) -> PmuReading {
        self.session.finish()
    }
}

impl Drop for RunningSession<'_> {
    fn drop(&mut self) {
        if let BackendImpl::Hw(g) = &self.session.backend {
            g.disable();
        }
    }
}

/// Multiplexing correction: estimate the full-interval count from the
/// fraction of time the counter was actually scheduled.
fn scale(value: u64, enabled: u64, running: u64) -> u64 {
    if running == 0 || running >= enabled {
        return value;
    }
    // u128 to survive value * enabled overflow on long runs.
    ((value as u128 * enabled as u128) / running as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_corrects_for_multiplexing() {
        assert_eq!(scale(100, 1000, 500), 200);
        assert_eq!(scale(100, 1000, 1000), 100);
        assert_eq!(scale(100, 1000, 0), 100, "no running time: report raw");
        assert_eq!(scale(u64::MAX / 2, 1_000_000, 999_999), 9223381260236036043);
    }

    #[test]
    fn software_session_counts_cycles() {
        let mut s = PmuSession::software();
        assert_eq!(s.backend_kind(), BackendKind::Software);
        let run = s.start();
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let r = run.stop();
        assert_eq!(r.backend, BackendKind::Software);
        assert!(r.get(PmuEvent::Cycles).is_some_and(|c| c > 0));
    }

    #[test]
    fn software_session_reports_all_events() {
        let mut s = PmuSession::software();
        let r = s.start().stop();
        for e in PmuEvent::ALL {
            assert!(
                r.get(e).is_some(),
                "{} missing from software reading",
                e.name()
            );
        }
        assert!(s.unavailable_events().is_empty());
    }

    #[test]
    fn fed_counters_appear_in_reading() {
        let mut s = PmuSession::software();
        s.feed(PmuEvent::Instructions, 2_000);
        s.feed(PmuEvent::LlcLoadMisses, 3);
        let r = s.start().stop();
        assert_eq!(r.get(PmuEvent::Instructions), Some(2_000));
        assert_eq!(r.get(PmuEvent::LlcLoadMisses), Some(3));
        let mpki = r.mpki(PmuEvent::LlcLoadMisses).unwrap();
        assert!((mpki - 1.5).abs() < 1e-12);
    }

    #[test]
    fn auto_session_always_constructs() {
        // The whole point: every environment gets *a* session.
        let mut s = PmuSession::new();
        let r = s.start().stop();
        match r.backend {
            BackendKind::Hardware => {
                assert!(r.time_enabled_ns > 0, "hardware session was scheduled")
            }
            BackendKind::Software => assert!(r.get(PmuEvent::Cycles).is_some()),
        }
    }

    fn gettid() -> libc::pid_t {
        // SAFETY: gettid takes no arguments and cannot fail.
        unsafe { libc::syscall(libc::SYS_gettid) as libc::pid_t }
    }

    /// Starts a session from `open(tid)` on a thread that spins and one
    /// on a thread that sleeps, over the same 20 ms of wall time, and
    /// returns their cycles.
    fn spinning_and_sleeping(open: fn(libc::pid_t) -> PmuSession) -> (u64, u64) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads: Vec<_> = [true, false]
            .into_iter()
            .map(|spin| {
                let (stop, tx) = (Arc::clone(&stop), tx.clone());
                std::thread::spawn(move || {
                    tx.send((spin, gettid())).expect("caller waits for the id");
                    while !stop.load(Ordering::Relaxed) {
                        if spin {
                            std::hint::spin_loop();
                        } else {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                })
            })
            .collect();
        let mut sessions: Vec<_> = rx
            .iter()
            .take(2)
            .map(|(spin, tid)| (spin, open(tid)))
            .collect();
        sessions.sort_by_key(|&(spin, _)| !spin);
        for (_, s) in &mut sessions {
            s.begin();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let cycles: Vec<u64> = sessions
            .iter_mut()
            .map(|(_, s)| s.finish().get(PmuEvent::Cycles).unwrap_or(0))
            .collect();
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            t.join().expect("thread");
        }
        (cycles[0], cycles[1])
    }

    #[test]
    fn the_fallback_counts_each_thread_its_own_cycles() {
        let (spinning, sleeping) = spinning_and_sleeping(PmuSession::software_for);
        assert!(spinning > 0, "the spinner ran");
        assert!(
            sleeping < spinning / 10,
            "sleeping {sleeping} cycles, spinning {spinning}"
        );
        // Whichever backend `for_thread` finds reads the same way.
        let (spinning, sleeping) = spinning_and_sleeping(PmuSession::for_thread);
        assert!(
            sleeping < spinning / 10,
            "sleeping {sleeping} cycles, spinning {spinning}"
        );
    }

    #[test]
    fn for_thread_on_the_callers_own_id_is_new() {
        let mut own = PmuSession::for_thread(gettid());
        let mut new = PmuSession::new();
        assert_eq!(own.backend_kind(), new.backend_kind());
        assert_eq!(own.unavailable_events(), new.unavailable_events());
        let (a, b) = (own.start().stop(), new.start().stop());
        assert_eq!(a.backend, b.backend);
        for e in PmuEvent::ALL {
            assert_eq!(a.get(e).is_some(), b.get(e).is_some(), "{}", e.name());
        }
    }

    #[test]
    fn guardless_begin_finish_matches_guard_api() {
        let mut s = PmuSession::software();
        s.feed(PmuEvent::Instructions, 500);
        s.begin();
        let r = s.finish();
        assert_eq!(r.get(PmuEvent::Instructions), Some(500));
        assert!(r.get(PmuEvent::Cycles).is_some());
    }

    #[test]
    fn merge_sums_and_degrades_backend() {
        let mut a = PmuReading::empty_software();
        a.counts[PmuEvent::Cycles.index()] = Some(10);
        let mut b = PmuReading::empty_software();
        b.counts[PmuEvent::Cycles.index()] = Some(7);
        let m = a.merge(&b);
        assert_eq!(m.get(PmuEvent::Cycles), Some(17));
        assert_eq!(m.backend, BackendKind::Software);

        let hw = PmuReading {
            backend: BackendKind::Hardware,
            counts: [Some(1); 6],
            time_enabled_ns: 5,
            time_running_ns: 5,
        };
        assert_eq!(hw.merge(&hw).backend, BackendKind::Hardware);
        assert_eq!(hw.merge(&a).backend, BackendKind::Software);
    }

    #[test]
    fn merge_keeps_unmeasurable_events_unmeasurable() {
        let mut a = PmuReading::empty_software();
        a.counts[0] = None;
        let b = PmuReading::empty_software();
        assert_eq!(a.merge(&b).counts[0], None);
        assert_eq!(a.merge(&b).counts[1], Some(0));
    }

    #[test]
    fn multiplexed_flag() {
        let mut r = PmuReading::empty_software();
        assert!(!r.multiplexed());
        r.time_enabled_ns = 100;
        r.time_running_ns = 60;
        assert!(r.multiplexed());
        r.time_running_ns = 100;
        assert!(!r.multiplexed());
    }
}
