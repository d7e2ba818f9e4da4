//! A dependency-free, single-threaded mini-executor.
//!
//! Exists so the `conns` experiment (and anything else in this crate)
//! can drive [`ngm_core::AllocFuture`]s without pulling an async
//! runtime into the build: the whole point of the completion-based
//! front-end is that a std-`Future` works on *any* executor. The
//! service threads never wake a task: a pending `AllocFuture` wakes its
//! own, from its poll on this thread, so the ready queue only runs dry
//! for futures of other kinds.
//!
//! Tasks are `!Send` futures (allocator handles and submission queues
//! are per-thread objects); a waker may still be fired from any thread.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, PoisonError};
use std::task::{Context, Wake, Waker};

/// Woken task ids, behind a lock because a waker is `Send`.
struct ReadyQueue {
    woken: Mutex<VecDeque<usize>>,
}

impl ReadyQueue {
    fn push(&self, id: usize) {
        self.woken
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(id);
    }
}

/// One task's waker: re-enqueues its id. Cheap to clone, `Send + Sync`,
/// and safe to fire from any thread (it only touches the ready queue,
/// never executor or task state).
struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// A single-threaded run-to-completion executor.
///
/// ```ignore
/// let mut ex = MiniExecutor::new();
/// ex.spawn(async { /* ... */ });
/// ex.run(); // polls until every spawned task completes
/// ```
pub struct MiniExecutor {
    tasks: Vec<Option<Pin<Box<dyn Future<Output = ()>>>>>,
    /// One waker per task, built at spawn and reused across polls — a
    /// fresh `Arc` per poll would put an allocation on every event of a
    /// fast-path task.
    wakers: Vec<Waker>,
    ready: Arc<ReadyQueue>,
    live: usize,
}

impl Default for MiniExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl MiniExecutor {
    /// An executor with no tasks.
    pub fn new() -> Self {
        MiniExecutor {
            tasks: Vec::new(),
            wakers: Vec::new(),
            ready: Arc::new(ReadyQueue {
                woken: Mutex::new(VecDeque::new()),
            }),
            live: 0,
        }
    }

    /// Queues `fut` to run; it is first polled inside [`MiniExecutor::run`].
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        let id = self.tasks.len();
        self.tasks.push(Some(Box::pin(fut)));
        self.wakers.push(Waker::from(Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
        })));
        self.live += 1;
        self.ready.push(id);
    }

    /// Tasks spawned and not yet completed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Polls woken tasks until every spawned task has completed.
    ///
    /// When the run queue drains it yields the core until a wake comes
    /// rather than sleeping: a wake that is not a task's own comes from
    /// another thread that may need exactly this core on a small
    /// machine, and `yield_now` hands it over without a futex on every
    /// wake.
    pub fn run(&mut self) {
        // Woken ids are drained in whole batches under one lock — with
        // thousands of tasks waking in waves, a lock round-trip per id
        // would dominate the dispatch loop.
        let mut batch: VecDeque<usize> = VecDeque::new();
        while self.live > 0 {
            let Some(id) = batch.pop_front() else {
                let mut woken = self
                    .ready
                    .woken
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::swap(&mut *woken, &mut batch);
                drop(woken);
                if batch.is_empty() {
                    std::thread::yield_now();
                }
                continue;
            };
            // A finished task woken again (a future may wake its task
            // on its way to completion): ignore.
            let Some(task) = self.tasks[id].as_mut() else {
                continue;
            };
            let mut cx = Context::from_waker(&self.wakers[id]);
            if task.as_mut().poll(&mut cx).is_ready() {
                self.tasks[id] = None;
                self.live -= 1;
            }
        }
        self.tasks.clear();
        self.wakers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::task::Poll;

    /// A future that completes after being woken `n` times from another
    /// thread.
    struct CountDown {
        remaining: u32,
    }

    impl Future for CountDown {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.remaining == 0 {
                return Poll::Ready(());
            }
            self.remaining -= 1;
            let w = cx.waker().clone();
            std::thread::spawn(move || w.wake());
            Poll::Pending
        }
    }

    #[test]
    fn drives_many_tasks_with_cross_thread_wakes() {
        let mut ex = MiniExecutor::new();
        let done = Rc::new(Cell::new(0u32));
        for i in 0..50 {
            let done = Rc::clone(&done);
            ex.spawn(async move {
                CountDown { remaining: i % 4 }.await;
                done.set(done.get() + 1);
            });
        }
        ex.run();
        assert_eq!(done.get(), 50);
        assert_eq!(ex.live(), 0);
    }
}
