//! The `conns_completion` load: many connection tasks on one thread,
//! each looping alloc → fill → free, driven through the completion
//! front-end (`SubmissionQueue`) on a minimal executor. The reference
//! side runs the same tasks on the same executor against
//! `std::alloc::System`, so executor and task overhead cancel in the
//! ratio and what remains is the completion path.
//!
//! The executor is the repository's `ngm-bench` mini-executor, copied
//! here because the benchmark binds only to the program's crates.

use std::alloc::Layout;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Wake, Waker};
use std::time::{Duration, Instant};

use crate::adapter::{Alloc, NgmError, SubmissionQueue, SystemAlloc};
use crate::replay::Fnv;
use crate::spans::Tracer;

/// Connections multiplexed on the client thread.
pub const CONNECTIONS: usize = 2_000;
/// Alloc → fill → free events per connection.
pub const EVENTS_PER_CONN: usize = 20;
/// Seed used when none is given ("conn").
pub const DEFAULT_SEED: u64 = 0x636f_6e6e;
/// How long the executor sits with every task parked and no wake before
/// it takes an idle turn (`SubmissionQueue::pump`), as a reactor reaps its
/// completion queue when the run queue is empty: four orders of magnitude
/// above a healthy completion, so the measured path is the slot waker's.
const IDLE_TURN: Duration = Duration::from_millis(10);
/// With no wake for this long, idle turns and all, the pass has hung.
const HANG: Duration = Duration::from_secs(5);

/// One connection's generated input.
#[derive(Debug, Clone, Copy)]
pub struct Conn {
    /// Reply-buffer size: one of eight consecutive small classes, so
    /// refills of one class overlap with pops from the others.
    pub size: usize,
    /// Byte the buffer is filled with.
    pub fill: u8,
}

/// Generates the connections from `seed` (splitmix64).
pub fn generate(seed: u64) -> Vec<Conn> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..CONNECTIONS)
        .map(|_| {
            let r = next();
            Conn {
                size: 16 * (1 + (r % 8) as usize),
                fill: (r >> 8) as u8,
            }
        })
        .collect()
}

/// FNV-1a over the generated connections.
pub fn fingerprint(conns: &[Conn]) -> u64 {
    let mut f = Fnv::new();
    for c in conns {
        f.words(&[c.size as u64, u64::from(c.fill)]);
    }
    f.0
}

/// Bytes the connections hold when each has one buffer live.
pub fn live_bytes(conns: &[Conn]) -> u64 {
    conns.iter().map(|c| c.size as u64).sum()
}

fn layout(c: Conn) -> Layout {
    Layout::from_size_align(c.size, 8).expect("valid layout")
}

/// Fills the reply buffer and checksums it, as a serializer would.
///
/// # Safety
///
/// `ptr` is valid for writes and reads of `c.size` bytes.
unsafe fn event_work(ptr: NonNull<u8>, c: Conn) -> u64 {
    // SAFETY: per contract.
    unsafe { std::ptr::write_bytes(ptr.as_ptr(), c.fill, c.size) };
    let mut sum = u64::from(c.fill);
    for i in 0..c.size {
        // SAFETY: i < size.
        sum = sum
            .rotate_left(7)
            .wrapping_add(u64::from(unsafe { ptr.as_ptr().add(i).read() }));
    }
    sum
}

/// What the tasks of one pass report back.
#[derive(Default)]
pub struct Tally {
    /// Wrapping sum of every event's checksum.
    pub checksum: Cell<u64>,
    /// Allocations that returned no block (their free is then skipped).
    pub failed_allocs: Cell<u64>,
    /// Frees the queue refused for good.
    pub failed_frees: Cell<u64>,
    /// Submissions refused with `WouldBlock`.
    pub wouldblocks: Cell<u64>,
    /// Allocation and free submissions made, refused ones included.
    pub submits: Cell<u64>,
    /// Times the executor pumped the queue because no wake had come for
    /// [`IDLE_TURN`].
    pub idle_turns: Cell<u64>,
}

impl Tally {
    /// Operations that failed: each failed allocation also loses its free.
    pub fn failed(&self) -> u64 {
        2 * self.failed_allocs.get() + self.failed_frees.get()
    }
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get().wrapping_add(by));
}

/// One connection through the completion front-end. It yields only when
/// it cannot progress: the class's refill is in flight (the future parks
/// on the slot waker) or the queue is at its in-flight ceiling.
async fn conn_ngm<T: Tracer>(sq: SubmissionQueue, c: Conn, tally: Rc<Tally>, tr: Rc<RefCell<T>>) {
    let l = layout(c);
    for _ in 0..EVENTS_PER_CONN {
        let ptr = loop {
            let t = tr.borrow().now();
            let submitted = sq.alloc(l);
            let submit = tr.borrow_mut().close("core.sq_submit", t);
            bump(&tally.submits, 1);
            match submitted {
                Ok(fut) => {
                    let t = tr.borrow().now();
                    let got = fut.await;
                    tr.borrow_mut().close_under(submit, "core.future_wait", t);
                    break got.ok();
                }
                Err(NgmError::WouldBlock) => {
                    bump(&tally.wouldblocks, 1);
                    sq.ready().await;
                }
                Err(_) => break None,
            }
        };
        let Some(ptr) = ptr else {
            bump(&tally.failed_allocs, 1);
            continue;
        };
        let t = tr.borrow().now();
        // SAFETY: fresh block of at least `c.size` bytes.
        let sum = unsafe { event_work(ptr, c) };
        tr.borrow_mut().close("app.touch", t);
        bump(&tally.checksum, sum);
        loop {
            let t = tr.borrow().now();
            // SAFETY: the block above, relinquished on Ok.
            let freed = unsafe { sq.free(ptr, l) };
            tr.borrow_mut().close("core.sq_free", t);
            bump(&tally.submits, 1);
            match freed {
                Ok(()) => break,
                Err(NgmError::WouldBlock) => {
                    bump(&tally.wouldblocks, 1);
                    sq.ready().await;
                }
                Err(_) => {
                    bump(&tally.failed_frees, 1);
                    break;
                }
            }
        }
    }
}

/// The same connection against the reference allocator; never pending.
async fn conn_system(c: Conn, tally: Rc<Tally>) {
    let l = layout(c);
    for _ in 0..EVENTS_PER_CONN {
        let Some(ptr) = SystemAlloc.alloc(l) else {
            bump(&tally.failed_allocs, 1);
            continue;
        };
        // SAFETY: fresh block of at least `c.size` bytes.
        bump(&tally.checksum, unsafe { event_work(ptr, c) });
        // SAFETY: the block above, not used again.
        unsafe { SystemAlloc.free(ptr, l) };
    }
}

/// Runs every connection to completion through `sq`.
///
/// The completion path can leave the last tasks of a pass parked on
/// tickets whose refill was never submitted, with no waker armed (one
/// pass in 10,000 to 25,000 on this host; README.md has the diagnosis).
/// Every operation still completes once somebody pumps the queue, so the
/// executor's idle turn does that and the pass counts the turns in
/// [`Tally::idle_turns`]: the defect costs its round [`IDLE_TURN`] and is
/// reported, it does not fail the run.
///
/// # Errors
///
/// When no wake arrives for [`HANG`] although the queue was pumped.
pub fn pass_ngm<T: Tracer + 'static>(
    sq: &SubmissionQueue,
    conns: &[Conn],
    tr: &Rc<RefCell<T>>,
) -> Result<Rc<Tally>, String> {
    let tally = Rc::new(Tally::default());
    let mut ex = MiniExecutor::new();
    for &c in conns {
        ex.spawn(conn_ngm(sq.clone(), c, Rc::clone(&tally), Rc::clone(tr)));
    }
    ex.run(|| {
        sq.pump();
        bump(&tally.idle_turns, 1);
    })
    .map_err(|parked| {
        format!(
            "completion path hung: {parked} of {} connection tasks parked with no wake for \
             {HANG:?} and {} idle pumps, sq.in_flight() {}",
            conns.len(),
            tally.idle_turns.get(),
            sq.in_flight()
        )
    })?;
    Ok(tally)
}

/// Runs every connection to completion against `System`.
pub fn pass_system(conns: &[Conn]) -> Rc<Tally> {
    let tally = Rc::new(Tally::default());
    let mut ex = MiniExecutor::new();
    for &c in conns {
        ex.spawn(conn_system(c, Rc::clone(&tally)));
    }
    ex.run(|| ()).expect("tasks on System never park");
    tally
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// The cross-thread half: woken task ids.
struct ReadyQueue {
    woken: Mutex<VecDeque<usize>>,
}

impl ReadyQueue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<usize>> {
        self.woken.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, id: usize) {
        self.lock().push_back(id);
    }
}

/// One task's waker: re-enqueues its id. Safe to fire from the service
/// thread — it touches only the ready queue.
struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A single-threaded run-to-completion executor for `!Send` futures;
/// only the wakers cross threads.
struct MiniExecutor {
    tasks: Vec<Option<Pin<Box<dyn Future<Output = ()>>>>>,
    /// One waker per task, built at spawn and reused across polls.
    wakers: Vec<Waker>,
    ready: Arc<ReadyQueue>,
    live: usize,
}

impl MiniExecutor {
    fn new() -> Self {
        MiniExecutor {
            tasks: Vec::new(),
            wakers: Vec::new(),
            ready: Arc::new(ReadyQueue {
                woken: Mutex::new(VecDeque::new()),
            }),
            live: 0,
        }
    }

    fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        let id = self.tasks.len();
        self.tasks.push(Some(Box::pin(fut)));
        self.wakers.push(Waker::from(Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
        })));
        self.live += 1;
        self.ready.push(id);
    }

    /// Polls woken tasks until every spawned task has completed. When
    /// the run queue drains it yields the core rather than sleeping: the
    /// client has its core to itself, the next wake comes from the service
    /// thread within microseconds, and a futex sleep per completion wave
    /// would dominate. After [`IDLE_TURN`] without a wake, and every
    /// [`IDLE_TURN`] from then on, it calls `idle`.
    ///
    /// # Errors
    ///
    /// Returns how many tasks were still pending when no wake arrived
    /// for [`HANG`].
    fn run(&mut self, mut idle: impl FnMut()) -> Result<(), usize> {
        // Woken ids are drained in whole batches under one lock.
        let mut batch: VecDeque<usize> = VecDeque::new();
        while self.live > 0 {
            if batch.is_empty() {
                let parked = Instant::now();
                let mut turns = 0u32;
                loop {
                    {
                        let mut woken = self.ready.lock();
                        if !woken.is_empty() {
                            std::mem::swap(&mut *woken, &mut batch);
                            break;
                        }
                    }
                    let waited = parked.elapsed();
                    if waited >= HANG {
                        return Err(self.live);
                    }
                    if waited >= IDLE_TURN * (turns + 1) {
                        turns += 1;
                        idle();
                    }
                    std::thread::yield_now();
                }
            }
            let Some(id) = batch.pop_front() else {
                continue;
            };
            // A slot waker may fire for a task whose poll already
            // collected: ignore wakes of finished tasks.
            let Some(task) = self.tasks[id].as_mut() else {
                continue;
            };
            let mut cx = Context::from_waker(&self.wakers[id]);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks[id] = None;
                self.live -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Poll;

    /// Pends without arranging any wake.
    struct Orphan;

    impl Future for Orphan {
        type Output = ();
        fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
            Poll::Pending
        }
    }

    /// Pends until somebody sets the flag, and leaves its waker beside it.
    struct Parked(Rc<(Cell<bool>, RefCell<Option<Waker>>)>);

    impl Future for Parked {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 .0.get() {
                return Poll::Ready(());
            }
            *self.0 .1.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    #[test]
    fn an_idle_turn_can_rescue_a_parked_task() {
        let shared = Rc::new((Cell::new(false), RefCell::new(None)));
        let mut ex = MiniExecutor::new();
        ex.spawn(Parked(Rc::clone(&shared)));
        let mut turns = 0;
        let done = ex.run(|| {
            turns += 1;
            shared.0.set(true);
            shared.1.borrow_mut().take().expect("polled once").wake();
        });
        assert_eq!((done, turns), (Ok(()), 1));
    }

    #[test]
    fn a_hung_run_reports_its_parked_tasks() {
        let mut ex = MiniExecutor::new();
        ex.spawn(Orphan);
        ex.spawn(async {});
        let mut turns = 0;
        assert_eq!(
            ex.run(|| turns += 1),
            Err(1),
            "one task parked, nobody to wake it"
        );
        assert!(turns > 1, "the idle hook ran while it waited");
    }
}
