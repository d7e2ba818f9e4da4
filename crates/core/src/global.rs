//! `GlobalAlloc` adapter: install NextGen-Malloc for a whole program.
//!
//! ```ignore
//! use ngm_core::{NgmAllocator, NgmConfig};
//!
//! #[global_allocator]
//! static ALLOC: NgmAllocator = NgmAllocator::with_config(
//!     NgmConfig::new().with_shards(2).with_batch(16, 8),
//! );
//! ```
//!
//! The adapter mirrors the paper's prototype, which interposes on the C
//! library's `malloc`/`free` and forwards them to the pinned service
//! thread. Rust's `GlobalAlloc` is the equivalent hook. Three routing
//! special cases keep it self-hosting:
//!
//! * **Bootstrap** — allocations made while the runtime or a per-thread
//!   handle is being constructed come from a static bump arena
//!   ([`crate::bootstrap`]); frees into that arena are ignored. Since
//!   the arena never gives anything back, an exiting thread's handle is
//!   not dropped but emptied and parked for the next thread to adopt
//!   (`SPARES`): the arena burns per *peak* live thread, not per thread
//!   ever spawned.
//! * **The service thread itself** — must never round-trip to itself, so
//!   its own (rare) allocations also use the arena.
//! * **Large blocks** (above the class table's 16 KiB ceiling) — served
//!   as dedicated `mmap`s directly on the calling thread: the kernel
//!   already serializes them, offloading adds nothing (and it keeps
//!   `dealloc` layout-driven and symmetric).
//!
//! `realloc` stays in place while the old and new sizes share a size
//! class — a growing `String` or `Vec` moves only when it crosses into the
//! next class — and is otherwise the default alloc + copy + free.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::{Cell, RefCell};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use ngm_heap::classes::layout_to_class;
use ngm_heap::sys::{map_large, unmap_large};

use crate::api::{lock, Ngm, NgmHandle};
use crate::bootstrap::{bootstrap_alloc, is_bootstrap_ptr};
use crate::config::NgmConfig;

static RUNTIME: OnceLock<Ngm> = OnceLock::new();

/// Set by the service thread once its polling loop is about to start.
/// Until then every allocation — including the service thread's own
/// startup allocations, which would otherwise deadlock by round-tripping
/// to themselves — comes from the bootstrap arena.
static SERVICE_READY: AtomicBool = AtomicBool::new(false);

/// Handles whose threads have exited, emptied ([`NgmHandle::empty`]:
/// in-flight refills settled, frees flushed, magazines returned — a
/// spare holds no block of any shard) and waiting for the next thread
/// that needs one. A handle's boxed state and its clients' slots come
/// from the bootstrap arena, so reusing them is what bounds the arena.
static SPARES: Mutex<Vec<NgmHandle>> = Mutex::new(Vec::new());

/// A thread's handle slot; its destructor, run at thread exit, parks the
/// handle instead of dropping it.
struct ThreadHandle(RefCell<Option<NgmHandle>>);

impl std::ops::Deref for ThreadHandle {
    type Target = RefCell<Option<NgmHandle>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for ThreadHandle {
    fn drop(&mut self) {
        let (Some(mut handle), Some(_)) = (self.0.get_mut().take(), RUNTIME.get()) else {
            return;
        };
        // The spare list may grow: that, like everything else from here
        // to the thread's end, comes from the arena.
        let _ = GUARD.try_with(|g| g.set(true));
        handle.empty();
        lock(&SPARES).push(handle);
    }
}

std::thread_local! {
    /// True while this thread must not re-enter the offload path.
    static GUARD: Cell<bool> = const { Cell::new(false) };
    /// This thread's client handle, adopted or created lazily.
    static HANDLE: ThreadHandle = const { ThreadHandle(RefCell::new(None)) };
}

/// Marks the calling thread as the allocator service thread: all its
/// global allocations route to the bootstrap arena forever (a request to
/// itself would deadlock).
pub(crate) fn mark_allocator_thread() {
    let _ = GUARD.try_with(|g| g.set(true));
    SERVICE_READY.store(true, Ordering::Release);
}

fn runtime(cfg: &NgmConfig) -> &'static Ngm {
    RUNTIME.get_or_init(|| {
        // Everything allocated while spawning the runtime comes from the
        // bootstrap arena.
        let was = GUARD.with(|g| g.replace(true));
        // `cfg` is sanitized, hence valid. Its failure edges are
        // recorded like any tier's: a push into the control ring, whose
        // storage is allocated here, never allocates.
        let ngm = Ngm::from_config(*cfg).expect("a service thread spawns");
        GUARD.with(|g| g.set(was));
        ngm
    })
}

/// NextGen-Malloc as a `GlobalAlloc`.
///
/// Carries only an [`NgmConfig`] (so it can be built in a `const`
/// initializer — `#[global_allocator]` statics run before any environment
/// is readable); all live state is in a lazily-started [`Ngm`] runtime
/// shared by every `NgmAllocator` value. The value that triggers the
/// first allocation decides the configuration.
pub struct NgmAllocator {
    cfg: NgmConfig,
}

impl Default for NgmAllocator {
    fn default() -> Self {
        Self::with_config(NgmConfig::new())
    }
}

impl NgmAllocator {
    /// An adapter with the given configuration. Out-of-range knobs are
    /// clamped into range ([`NgmConfig::sanitized`]) rather than
    /// reported: a `#[global_allocator]` static has nowhere to surface a
    /// build error.
    pub const fn with_config(cfg: NgmConfig) -> Self {
        NgmAllocator {
            cfg: cfg.sanitized(),
        }
    }

    fn alloc_small(&self, layout: Layout) -> *mut u8 {
        // Re-entrant or service-thread context: bump arena. If the arena
        // ever fills, guarded requests that cannot recurse have no
        // fallback (null aborts the process); 16 MiB makes that remote.
        let guarded = GUARD.try_with(Cell::get).unwrap_or(true);
        if guarded {
            return bootstrap_alloc(layout);
        }
        let rt = runtime(&self.cfg);
        if !SERVICE_READY.load(Ordering::Acquire) {
            // The service loop has not started polling yet; anything that
            // allocates in this window (the service thread's own startup
            // included) must not wait on it.
            return bootstrap_alloc(layout);
        }
        HANDLE
            .try_with(|h| {
                let mut slot = match h.try_borrow_mut() {
                    Ok(s) => s,
                    // Re-entered through this very thread's handle (e.g.
                    // allocation from inside handle creation): arena.
                    Err(_) => return bootstrap_alloc(layout),
                };
                if slot.is_none() {
                    let was = GUARD.with(|g| g.replace(true));
                    let spare = lock(&SPARES).pop();
                    *slot = Some(spare.unwrap_or_else(|| rt.handle()));
                    GUARD.with(|g| g.set(was));
                }
                let handle = slot.as_mut().expect("handle initialized above");
                match handle.alloc(layout) {
                    Ok(p) => p.as_ptr(),
                    Err(_) => std::ptr::null_mut(),
                }
            })
            // TLS destroyed (thread exiting): bounded leak via the arena.
            .unwrap_or_else(|_| bootstrap_alloc(layout))
    }

    unsafe fn dealloc_small(ptr: NonNull<u8>, layout: Layout) {
        if is_bootstrap_ptr(ptr.as_ptr()) {
            return; // Arena blocks are leaked by design.
        }
        let Some(rt) = RUNTIME.get() else {
            // A real block cannot exist before the runtime: arena covers
            // every pre-runtime allocation. Nothing to do but drop it.
            debug_assert!(false, "small free before runtime initialization");
            return;
        };
        let guarded = GUARD.try_with(Cell::get).unwrap_or(true);
        if !guarded {
            let done = HANDLE
                .try_with(|h| {
                    if let Ok(mut slot) = h.try_borrow_mut() {
                        if let Some(handle) = slot.as_mut() {
                            // SAFETY: forwarded caller contract (live block
                            // from this allocator, correct layout).
                            unsafe { handle.dealloc(ptr, layout) };
                            return true;
                        }
                    }
                    false
                })
                .unwrap_or(false);
            if done {
                return;
            }
        }
        // No usable handle (guarded context, TLS teardown, foreign thread
        // exiting): orphan the block onto its owning shard's stack; that
        // service reclaims it when idle.
        // SAFETY: live small block relinquished by the caller.
        unsafe { rt.orphan_push(ptr) };
    }
}

// SAFETY: `alloc` returns blocks that are uniquely owned, aligned to
// `layout.align()`, and valid for `layout.size()` bytes (service heap,
// bump arena, and direct mappings all guarantee this); `dealloc` releases
// exactly the block identified by `(ptr, layout)`.
unsafe impl GlobalAlloc for NgmAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout_to_class(layout.size(), layout.align()).is_some() {
            self.alloc_small(layout)
        } else {
            // Large: dedicated mapping on the calling thread.
            map_large(layout).map_or(std::ptr::null_mut(), |(p, _)| p.as_ptr())
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let Some(ptr) = NonNull::new(ptr) else {
            return;
        };
        if layout_to_class(layout.size(), layout.align()).is_some() {
            // SAFETY: forwarded caller contract.
            unsafe { Self::dealloc_small(ptr, layout) };
        } else {
            // SAFETY: large blocks are dedicated mappings made in `alloc`
            // for this same layout.
            unsafe { unmap_large(ptr, layout) };
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A class block is as big as its class: while the request stays
        // inside the class the block already fits it, and the later
        // `dealloc(ptr, new_layout)` routes by that same class. Arena
        // blocks are exact-sized, so they always move.
        let class = layout_to_class(layout.size(), layout.align());
        if class.is_some()
            && class == layout_to_class(new_size, layout.align())
            && !is_bootstrap_ptr(ptr)
        {
            return ptr;
        }
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        // SAFETY: `new_layout` is valid and non-zero-sized per the
        // caller's contract.
        let new_ptr = unsafe { self.alloc(new_layout) };
        if !new_ptr.is_null() {
            // SAFETY: `ptr` is live for `layout.size()` bytes, the fresh
            // block for `new_size`, and the two cannot overlap; the old
            // block is released with the layout it was allocated with.
            unsafe {
                std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
                self.dealloc(ptr, layout);
            }
        }
        new_ptr
    }
}

/// Runtime statistics of the global allocator, if it has started.
pub fn global_stats() -> Option<ngm_offload::StatsSnapshot> {
    RUNTIME.get().map(|rt| rt.runtime_stats())
}

/// The global allocator's exportable metrics snapshot (counters, gauges,
/// latency histograms, `ngm_heap_*` series), if the runtime has started.
pub fn global_metrics() -> Option<ngm_telemetry::export::MetricsSnapshot> {
    RUNTIME.get().map(|rt| rt.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: usize) -> Layout {
        Layout::from_size_align(n, 8).unwrap()
    }

    #[test]
    fn direct_alloc_dealloc_small() {
        let a = NgmAllocator::default();
        // SAFETY: standard GlobalAlloc usage with matching layouts.
        unsafe {
            let p = a.alloc(layout(100));
            assert!(!p.is_null());
            std::ptr::write_bytes(p, 0xCD, 100);
            assert_eq!(*p.add(99), 0xCD);
            a.dealloc(p, layout(100));
        }
    }

    #[test]
    fn direct_large_alloc_dealloc() {
        let a = NgmAllocator::default();
        let l = layout(1 << 20);
        // SAFETY: standard GlobalAlloc usage.
        unsafe {
            let p = a.alloc(l);
            assert!(!p.is_null());
            *p.add((1 << 20) - 1) = 3;
            a.dealloc(p, l);
        }
    }

    #[test]
    fn many_threads_through_adapter() {
        let a = &NgmAllocator::default();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                s.spawn(move || {
                    let mut blocks = Vec::new();
                    for i in 0..300usize {
                        let l = layout(16 + (i * 29) % 2048);
                        // SAFETY: matched alloc/dealloc below.
                        let p = unsafe { a.alloc(l) };
                        assert!(!p.is_null());
                        // SAFETY: fresh block.
                        unsafe { std::ptr::write_bytes(p, t, 8) };
                        blocks.push((p as usize, l));
                    }
                    for (p, l) in blocks {
                        // SAFETY: blocks allocated above.
                        unsafe { a.dealloc(p as *mut u8, l) };
                    }
                });
            }
        });
        let stats = global_stats().expect("runtime started");
        // A round trip hands out at most one magazine.
        assert!(stats.calls_served * crate::service::MAX_BATCH as u64 >= 1200);
    }

    #[test]
    fn the_hooks_tier_records_failures_in_its_control_ring() {
        let hooked = runtime(&NgmAllocator::default().cfg);
        let control = &hooked.obs_state().control;
        let before = hooked.failures().len();
        control.push(
            ngm_telemetry::trace::TraceEventKind::Failure,
            crate::FailureReason::Fallback as u64,
            0,
        );
        let failures = hooked.failures();
        assert_eq!(failures.len(), before + 1);
        let last = failures.last().expect("just pushed");
        assert_eq!(
            (crate::FailureReason::from_code(last.a), last.b),
            (Some(crate::FailureReason::Fallback), 0)
        );
        // The ring sits in slot 0's trace stream, beside the rest.
        assert!(hooked.telemetry().peek_trace(usize::MAX).contains(last));
    }

    #[test]
    fn realloc_within_a_class_stays_in_place() {
        let a = NgmAllocator::default();
        let class = ngm_heap::size_to_class(9_000).expect("a class block");
        assert_eq!(ngm_heap::size_to_class(10_000), Some(class));
        let stashed = || HANDLE.with(|h| h.borrow().as_ref().expect("handle").magazine_len(class));
        // SAFETY: standard GlobalAlloc usage; the block is released with
        // the layout it last had.
        unsafe {
            let p = a.alloc(layout(9_000));
            assert!(!p.is_null());
            *p.add(8_000) = 0x5A;
            let before = stashed();
            // Growing and shrinking inside the class: the same block, and
            // nothing popped — so no refill either.
            assert_eq!(a.realloc(p, layout(9_000), 10_000), p);
            assert_eq!(a.realloc(p, layout(10_000), 8_500), p);
            assert_eq!(stashed(), before);
            // Crossing into the next class moves the block and its bytes.
            let q = a.realloc(p, layout(8_500), 10_241);
            assert_ne!(q, p);
            assert_eq!(*q.add(8_000), 0x5A);
            a.dealloc(q, layout(10_241));
        }
    }

    #[test]
    fn realloc_moves_an_arena_block() {
        GUARD.with(|g| g.set(true));
        let a = NgmAllocator::default();
        // SAFETY: standard usage; arena blocks may be freed (ignored).
        unsafe {
            let p = a.alloc(layout(50));
            assert!(is_bootstrap_ptr(p));
            *p = 0x33;
            // 50 and 60 bytes share the 64-byte class, but an arena
            // block is exactly as big as it was asked to be.
            let q = a.realloc(p, layout(50), 60);
            assert!(is_bootstrap_ptr(q));
            assert_ne!(q, p);
            assert_eq!(*q, 0x33);
            a.dealloc(q, layout(60));
        }
        GUARD.with(|g| g.set(false));
    }

    #[test]
    fn guarded_context_uses_arena() {
        GUARD.with(|g| g.set(true));
        let a = NgmAllocator::default();
        // SAFETY: standard usage; arena blocks may be freed (ignored).
        unsafe {
            let p = a.alloc(layout(64));
            assert!(is_bootstrap_ptr(p));
            a.dealloc(p, layout(64));
        }
        GUARD.with(|g| g.set(false));
    }
}
