//! The completion-based front-end: a per-thread [`SubmissionQueue`]
//! batching many in-flight allocations over one [`NgmHandle`], and
//! [`AllocFuture`] — a std `Future` any runtime can drive.
//!
//! The design is io_uring-shaped. Callers *submit* allocation tickets
//! (bounded by [`crate::NgmConfig::with_inflight_limit`]) and *complete*
//! them later. Submission itself attempts the allocation: a magazine
//! hit completes the ticket on the spot — as does a large layout, which
//! the handle maps on the calling thread — so only genuinely-blocked
//! requests (class magazine dry, refill in flight) park. Parked tickets
//! wait in per-size-class queues and complete *out of order* across
//! classes — a refill landing for one class never holds up tickets
//! whose class has stock — while staying FIFO within a class so no
//! connection starves.
//!
//! [`SubmissionQueue::pump`] drives the handle's non-blocking
//! primitives — magazine pops, submitted-but-unawaited
//! [`crate::AllocBatchReq`] refills, single-push free posts — and never
//! blocks on a service thread. The service thread never wakes anyone
//! either: it answers by writing the slot, as it does for a blocking
//! client. A pending `AllocFuture::poll` pumps the whole queue —
//! collecting landed refills, completing every ticket whose class has
//! stock, submitting the refill of the first dry class whose slot is
//! free — and if its own ticket is still parked, takes one step of the
//! handle's wait strategy (spin, then yield, as a blocking client
//! waits; never the sleep phase of `WaitStrategy::Backoff`, so a poll
//! never blocks its thread) and wakes its own task before returning
//! `Pending`. The queue's liveness invariant is therefore *a parked
//! ticket's task is always runnable*: no ticket depends on a wake that
//! might never come. The cost is that an executor holding a parked
//! ticket never goes idle: it re-polls that task, one pump and at most
//! one `yield_now` a poll, until the refill lands.
//! Backpressure at the in-flight ceiling is typed
//! ([`NgmError::WouldBlock`]) for manual drivers, or awaitable through
//! [`SubmissionQueue::ready`] so tasks park instead of spin.
//!
//! The queue is deliberately `!Send` (`Rc<RefCell<…>>`): like the handle
//! it wraps, it is a per-thread object, which is what keeps the fast
//! path free of atomics. Every wake is same-thread: a pending future's
//! own, and the capacity waiters [`SubmissionQueue::ready`] parks.

use std::alloc::Layout;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use ngm_offload::WaitState;

use crate::api::NgmHandle;
use crate::config::NgmError;

/// Where one submitted allocation stands.
#[derive(Debug)]
enum Ticket {
    /// Submitted for this layout, no block yet.
    Pending(Layout),
    /// Completed; the result waits for the future to collect it. The
    /// layout rides along so a cancelled-after-completion ticket can
    /// free its block without the (gone) future's help.
    Ready {
        /// The allocation outcome.
        result: Result<NonNull<u8>, NgmError>,
        /// The layout the block was allocated with.
        layout: Layout,
    },
    /// Collected (or never submitted); the ticket id is free for reuse.
    /// A collected future marks itself (`AllocFuture::collected`) and
    /// never touches the table again, so the id recycles immediately.
    Vacant,
}

/// Shared state behind a [`SubmissionQueue`] and its futures.
struct SqInner {
    handle: NgmHandle,
    /// Ticket table, indexed by the id carried in [`AllocFuture`].
    tickets: Vec<Ticket>,
    /// Vacant ticket ids, reused before the table grows.
    free_ids: Vec<usize>,
    /// Parked ticket ids by `(size, align)`, each queue in submission
    /// order: completion is FIFO within a class, out of order across
    /// classes.
    pending: BTreeMap<(usize, usize), VecDeque<usize>>,
    /// Uncollected tickets (`Pending` + `Ready`): the resource count the
    /// in-flight ceiling bounds.
    active: usize,
    /// Frees the ring refused; retried every pump, flushed at drop.
    deferred_frees: VecDeque<(usize, Layout)>,
    /// How a pending poll waits: the handle's client wait strategy
    /// without its sleep phase, stepped once per poll that left its
    /// ticket parked and rearmed by every pump that collected a response
    /// or completed a ticket.
    pace: WaitState,
    /// Submissions since the last depth-histogram sample.
    depth_tick: u32,
    /// Tasks parked on [`SubmissionQueue::ready`], woken one per freed
    /// capacity unit.
    capacity_waiters: VecDeque<Waker>,
    /// Ceiling on [`SqInner::in_flight`].
    limit: usize,
}

impl SqInner {
    /// Drives everything drivable without blocking: collects landed
    /// refill responses, satisfies parked tickets (FIFO per class),
    /// retries deferred frees, and rearms the pace if anything moved.
    /// Returns how many tickets completed.
    fn pump(&mut self) -> usize {
        let collected = self.handle.nb_pump();
        let completed = self.scan();
        self.retry_deferred_frees();
        if collected + completed > 0 {
            self.pace.reset();
        }
        completed
    }

    /// One pass over the parked classes: completes the tickets of every
    /// class with stock, and a dry class's `try_alloc` submits its refill
    /// if the slot is free. Returns how many tickets completed.
    fn scan(&mut self) -> usize {
        let mut completed = 0;
        for queue in self.pending.values_mut() {
            while let Some(&id) = queue.front() {
                let Ticket::Pending(layout) = self.tickets[id] else {
                    // Cancelled (future dropped): discard the queue
                    // entry. The id becomes reusable only now — while it
                    // sat in the queue, reuse would have double-enqueued
                    // it.
                    queue.pop_front();
                    self.free_ids.push(id);
                    continue;
                };
                match self.handle.try_alloc(layout) {
                    // This class cannot progress (refill in flight);
                    // move on — other classes may have stock.
                    Err(NgmError::WouldBlock) => break,
                    result => {
                        queue.pop_front();
                        self.tickets[id] = Ticket::Ready { result, layout };
                        completed += 1;
                    }
                }
            }
        }
        self.pending.retain(|_, q| !q.is_empty());
        completed
    }

    /// Frees the ring refused earlier: one push attempt each, back of
    /// the line on refusal. Each drained free releases capacity.
    fn retry_deferred_frees(&mut self) {
        for _ in 0..self.deferred_frees.len() {
            let Some((addr, layout)) = self.deferred_frees.pop_front() else {
                break;
            };
            let ptr = NonNull::new(addr as *mut u8).expect("deferred free of null");
            // SAFETY: ownership was transferred to the queue when
            // `SubmissionQueue::free` accepted the block.
            match unsafe { self.handle.try_dealloc(ptr, layout) } {
                Ok(()) => self.release_capacity(),
                Err(_) => {
                    self.deferred_frees.push_back((addr, layout));
                    break; // the ring is full; later entries would bounce too
                }
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.active + self.deferred_frees.len()
    }

    /// One unit of in-flight room came free: unpark one waiter.
    fn release_capacity(&mut self) {
        if let Some(w) = self.capacity_waiters.pop_front() {
            w.wake();
        }
    }

    fn take_id(&mut self) -> usize {
        match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.tickets.push(Ticket::Vacant);
                self.tickets.len() - 1
            }
        }
    }
}

/// A per-thread submission/completion queue over an [`NgmHandle`].
///
/// Built with [`SubmissionQueue::new`]; cheap to clone (futures hold a
/// clone). See the [module docs](self) for the completion model.
pub struct SubmissionQueue {
    inner: Rc<RefCell<SqInner>>,
}

impl Clone for SubmissionQueue {
    fn clone(&self) -> Self {
        SubmissionQueue {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl SubmissionQueue {
    /// Wraps `handle` in a submission queue. The in-flight ceiling is
    /// the tier's [`crate::NgmConfig::with_inflight_limit`].
    pub fn new(handle: NgmHandle) -> Self {
        let limit = handle.inflight_limit();
        // A `poll` must not block its thread, so a Backoff client's
        // sleep phase is cut off here: the pace only spins and yields.
        let pace = WaitState::new(handle.wait_strategy().without_sleep());
        SubmissionQueue {
            inner: Rc::new(RefCell::new(SqInner {
                handle,
                tickets: Vec::new(),
                free_ids: Vec::new(),
                pending: BTreeMap::new(),
                active: 0,
                deferred_frees: VecDeque::new(),
                pace,
                depth_tick: 0,
                capacity_waiters: VecDeque::new(),
                limit,
            })),
        }
    }

    /// Submits one allocation and returns the future that completes it.
    ///
    /// The submission *attempts* the allocation: on a magazine hit the
    /// ticket is born completed and the future resolves on its first
    /// poll; otherwise the refill rides out-of-band and the ticket
    /// parks in its class queue.
    ///
    /// # Errors
    ///
    /// [`NgmError::WouldBlock`] when the queue is at its in-flight
    /// ceiling — complete something (await a future, [`pump`], or park
    /// on [`ready`]) and resubmit. Other errors are the handle's own
    /// (zero-size layouts, exhaustion) and consume no capacity.
    ///
    /// [`pump`]: SubmissionQueue::pump
    /// [`ready`]: SubmissionQueue::ready
    pub fn alloc(&self, layout: Layout) -> Result<AllocFuture, NgmError> {
        let mut inner = self.inner.borrow_mut();
        if inner.in_flight() >= inner.limit {
            // One pump before refusing: completions may free room.
            inner.pump();
            if inner.in_flight() >= inner.limit {
                return Err(NgmError::WouldBlock);
            }
        }
        inner.depth_tick = inner.depth_tick.wrapping_add(1);
        if inner.depth_tick.is_multiple_of(32) {
            inner.handle.record_submit_depth(inner.active as u64);
        }
        let ticket = match inner.handle.try_alloc(layout) {
            Ok(p) => Some(Ok(p)),
            Err(NgmError::WouldBlock) => None,
            Err(e) => return Err(e),
        };
        let id = inner.take_id();
        match ticket {
            Some(result) => inner.tickets[id] = Ticket::Ready { result, layout },
            None => {
                inner.tickets[id] = Ticket::Pending(layout);
                inner
                    .pending
                    .entry((layout.size(), layout.align()))
                    .or_default()
                    .push_back(id);
            }
        }
        inner.active += 1;
        drop(inner);
        Ok(AllocFuture {
            sq: self.clone(),
            id,
            collected: false,
        })
    }

    /// Hands a block back. Never blocks: a refused ring push parks the
    /// free in the queue (retried every pump, flushed at drop), so
    /// ownership always transfers — unlike [`NgmHandle::try_dealloc`],
    /// this cannot fail with `WouldBlock` unless the queue itself is at
    /// its ceiling.
    ///
    /// # Errors
    ///
    /// [`NgmError::WouldBlock`] when the queue is at its in-flight
    /// ceiling; the caller still owns `ptr`.
    ///
    /// # Safety
    ///
    /// As [`NgmHandle::dealloc`]; on `Ok` the block must not be used
    /// again (even though the underlying free may still be in flight).
    pub unsafe fn free(&self, ptr: NonNull<u8>, layout: Layout) -> Result<(), NgmError> {
        let mut inner = self.inner.borrow_mut();
        // SAFETY: forwarded contract.
        match unsafe { inner.handle.try_dealloc(ptr, layout) } {
            Ok(()) => Ok(()),
            Err(NgmError::WouldBlock) => {
                if inner.in_flight() >= inner.limit {
                    return Err(NgmError::WouldBlock);
                }
                inner
                    .deferred_frees
                    .push_back((ptr.as_ptr() as usize, layout));
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// A future that resolves when the queue is below its in-flight
    /// ceiling — the awaitable form of the [`alloc`]/[`free`]
    /// `WouldBlock`, so tasks park instead of spinning on resubmission.
    ///
    /// Readiness is advisory: on a single-threaded executor the caller
    /// can submit immediately after awaiting; with interleaving, the
    /// next submission may still bounce and should re-await.
    ///
    /// [`alloc`]: SubmissionQueue::alloc
    /// [`free`]: SubmissionQueue::free
    pub fn ready(&self) -> ReadyFuture {
        ReadyFuture { sq: self.clone() }
    }

    /// Drives all in-flight work one step without blocking; returns how
    /// many tickets completed. Useful outside an async runtime (retry
    /// loops around [`NgmHandle::try_alloc`]-style code) — futures pump
    /// implicitly on poll.
    pub fn pump(&self) -> usize {
        self.inner.borrow_mut().pump()
    }

    /// Tickets submitted and not yet collected, plus frees parked for
    /// retry.
    pub fn in_flight(&self) -> usize {
        self.inner.borrow().in_flight()
    }

    /// Runs `f` against the wrapped handle (stats, routing inspection).
    pub fn with_handle<T>(&self, f: impl FnOnce(&mut NgmHandle) -> T) -> T {
        f(&mut self.inner.borrow_mut().handle)
    }
}

impl Drop for SqInner {
    /// Blocks briefly if needed to hand every parked free back to the
    /// tier (`flush` semantics at the end of the queue's life), so
    /// `allocs == frees` holds at shutdown. Outstanding *tickets* need
    /// no work here: their futures never allocated anything.
    fn drop(&mut self) {
        while let Some((addr, layout)) = self.deferred_frees.pop_front() {
            if let Some(ptr) = NonNull::new(addr as *mut u8) {
                // SAFETY: the queue owns these blocks (see `free`); the
                // blocking path always accepts.
                unsafe { self.handle.dealloc(ptr, layout) };
            }
        }
    }
}

/// One in-flight allocation: completes with the block (or a typed
/// error) on the first poll after the service's response lands. While
/// its ticket is parked every poll pumps the queue, paces one wait step
/// and wakes its own task, so the task stays runnable until it
/// completes.
///
/// Dropping the future before completion cancels the ticket; a block
/// that nonetheless arrives for it is freed back by the queue, so
/// cancellation never leaks.
pub struct AllocFuture {
    sq: SubmissionQueue,
    id: usize,
    /// Result already handed out: `Drop` has nothing to do — not even a
    /// `RefCell` borrow — and the id has been recycled.
    collected: bool,
}

impl Future for AllocFuture {
    type Output = Result<NonNull<u8>, NgmError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut inner = this.sq.inner.borrow_mut();
        if matches!(inner.tickets[this.id], Ticket::Pending(_)) {
            inner.pump();
        }
        if matches!(inner.tickets[this.id], Ticket::Pending(_)) {
            // Nobody else will wake this task: wait one step the way a
            // blocking client would, and stay runnable.
            inner.pace.pause();
            cx.waker().wake_by_ref();
            return Poll::Pending;
        }
        let Ticket::Ready { result, .. } =
            std::mem::replace(&mut inner.tickets[this.id], Ticket::Vacant)
        else {
            unreachable!("future polled after completion")
        };
        // A `Ready` ticket sits in no class queue (completed tickets are
        // popped when they complete), so the id is safe to reuse right
        // away.
        inner.free_ids.push(this.id);
        inner.active -= 1;
        inner.release_capacity();
        this.collected = true;
        Poll::Ready(result)
    }
}

impl Drop for AllocFuture {
    fn drop(&mut self) {
        if self.collected {
            return; // result handed out, id recycled — nothing to undo
        }
        let Ok(mut inner) = self.sq.inner.try_borrow_mut() else {
            return; // queue itself is being dropped; tickets die with it
        };
        match std::mem::replace(&mut inner.tickets[self.id], Ticket::Vacant) {
            Ticket::Ready {
                result: Ok(ptr),
                layout,
            } => {
                // Completed but never collected: free the block back so
                // cancellation never leaks. The blocking dealloc always
                // accepts. This id never entered (or already left) the
                // pending queues.
                // SAFETY: the block was allocated with `layout` by the
                // wrapped handle's tier and nothing else holds it.
                unsafe { inner.handle.dealloc(ptr, layout) };
                inner.free_ids.push(self.id);
                inner.active -= 1;
                inner.release_capacity();
            }
            Ticket::Ready { .. } => {
                inner.free_ids.push(self.id);
                inner.active -= 1;
                inner.release_capacity();
            }
            Ticket::Pending(_) => {
                // Still parked: the pump discards the class-queue entry
                // when it reaches it and recycles the id there — pushing
                // it to `free_ids` now would let a new ticket alias the
                // stale queue entry. The capacity is released here.
                inner.active -= 1;
                inner.release_capacity();
            }
            Ticket::Vacant => {}
        }
    }
}

/// Future returned by [`SubmissionQueue::ready`]: resolves when the
/// queue has in-flight room.
pub struct ReadyFuture {
    sq: SubmissionQueue,
}

impl Future for ReadyFuture {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.sq.inner.borrow_mut();
        if inner.in_flight() < inner.limit {
            return Poll::Ready(());
        }
        // Full: one pump may collect room (deferred frees drain).
        inner.pump();
        if inner.in_flight() < inner.limit {
            return Poll::Ready(());
        }
        inner.capacity_waiters.push_back(cx.waker().clone());
        if inner.active == 0 {
            // Every in-flight unit is a deferred free: no ticket will
            // complete or be collected to unpark us, and the ring drains
            // on the service's schedule with no client-visible edge —
            // yield and re-poll.
            cx.waker().wake_by_ref();
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NgmConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    fn layout(n: usize) -> Layout {
        Layout::from_size_align(n, 8).unwrap()
    }

    struct Flag(AtomicUsize);
    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Flag {
        fn wakes(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    /// A waker that counts its wakes, and the count.
    fn counting_waker() -> (Arc<Flag>, Waker) {
        let flag = Arc::new(Flag(AtomicUsize::new(0)));
        (Arc::clone(&flag), Waker::from(flag))
    }

    fn poll_with<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(waker))
    }

    /// Minimal single-future executor that never pumps the queue: it
    /// polls again only on a wake, and the one wake a pending
    /// `AllocFuture` gets is the one its own poll fires.
    fn block_on<F: Future>(fut: F) -> F::Output {
        let (flag, waker) = counting_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(fut);
        loop {
            let seen = flag.wakes();
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => {
                    assert_eq!(flag.wakes(), seen + 1, "a pending poll wakes its task")
                }
            }
        }
    }

    #[test]
    fn future_completes_and_ledger_balances() {
        let ngm = NgmConfig::new().with_batch(8, 4).build().unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let mut blocks = Vec::new();
        for _ in 0..50 {
            let ptr = block_on(sq.alloc(layout(64)).unwrap()).unwrap();
            // SAFETY: fresh 64-byte block.
            unsafe { std::ptr::write_bytes(ptr.as_ptr(), 0x6B, 64) };
            blocks.push(ptr);
        }
        for ptr in blocks {
            // SAFETY: blocks from this queue's tier, relinquished here.
            unsafe { sq.free(ptr, layout(64)).unwrap() };
        }
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn large_tickets_are_born_ready_and_single_refills_find_theirs() {
        // A large layout is mapped at submission, so nothing rides the
        // slot for it; a refill of one lands in the magazine for the
        // ticket that asked.
        let ngm = NgmConfig::new().with_batch(1, 1).build().unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        for l in [layout(64), layout(1 << 20), layout(64)] {
            let fut = sq.alloc(l).unwrap();
            if l.size() == 1 << 20 {
                assert_eq!(sq.with_handle(|h| h.nb_inflight()), 0, "born ready");
            }
            let ptr = block_on(fut).unwrap();
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, l).unwrap() };
        }
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.runtime.calls_served, 2, "zero calls for the large");
        assert_eq!(down.service.app_allocs(), 3, "one block per ticket");
        assert_eq!(down.service.magazine_returned, 0);
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_total(), 0);
    }

    #[test]
    fn many_inflight_futures_complete_out_of_order_polls() {
        let ngm = NgmConfig::new()
            .with_batch(8, 4)
            .with_inflight_limit(512)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let futures: Vec<AllocFuture> = (0..200).map(|_| sq.alloc(layout(32)).unwrap()).collect();
        assert_eq!(sq.in_flight(), 200);
        // Drive them newest-first: completion is FIFO within the class,
        // so every future must resolve regardless of poll order.
        for fut in futures.into_iter().rev() {
            let ptr = block_on(fut).unwrap();
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, layout(32)).unwrap() };
        }
        assert_eq!(sq.with_handle(|h| h.nb_inflight()), 0);
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn classes_complete_out_of_order_across_a_blocked_one() {
        let ngm = NgmConfig::new()
            .with_batch(8, 4)
            .with_inflight_limit(512)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        // Warm class 64 so its allocations complete from the magazine
        // even while class 32's first refill is still in flight.
        let warm = block_on(sq.alloc(layout(64)).unwrap()).unwrap();
        // SAFETY: block from this queue's tier.
        unsafe { sq.free(warm, layout(64)).unwrap() };
        let cold = sq.alloc(layout(32)).unwrap();
        let hot = sq.alloc(layout(64)).unwrap();
        // The warm-class future must resolve regardless of the cold
        // class parked ahead of it in submission order.
        let p64 = block_on(hot).unwrap();
        let p32 = block_on(cold).unwrap();
        // SAFETY: blocks from this queue's tier.
        unsafe {
            sq.free(p64, layout(64)).unwrap();
            sq.free(p32, layout(32)).unwrap();
        }
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn inflight_limit_backpressures_with_typed_wouldblock() {
        let ngm = NgmConfig::new()
            .with_batch(8, 4)
            .with_inflight_limit(4)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let mut held = Vec::new();
        let mut bounced = false;
        // Uncollected tickets pin capacity whether or not they complete,
        // so submitting without ever polling must bounce at the ceiling.
        for _ in 0..64 {
            match sq.alloc(layout(16)) {
                Ok(f) => held.push(f),
                Err(NgmError::WouldBlock) => {
                    bounced = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(bounced, "ceiling of 4 must refuse the fifth submission");
        assert!(held.len() <= 4);
        for fut in held {
            let ptr = block_on(fut).unwrap();
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, layout(16)).unwrap() };
        }
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
    }

    #[test]
    fn ready_future_resolves_once_capacity_frees() {
        let ngm = NgmConfig::new()
            .with_batch(8, 4)
            .with_inflight_limit(2)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let a = sq.alloc(layout(16)).unwrap();
        let b = sq.alloc(layout(16)).unwrap();
        assert!(matches!(sq.alloc(layout(16)), Err(NgmError::WouldBlock)));
        // At the ceiling: ready() must park (not spin-resolve)…
        let (pa, pb) = {
            let (flag, waker) = counting_waker();
            let mut ready = sq.ready();
            assert!(poll_with(&mut ready, &waker).is_pending());
            // …and resolve after a future collects (capacity released).
            let pa = block_on(a).unwrap();
            assert!(flag.wakes() > 0, "waiter woken");
            assert!(poll_with(&mut ready, &waker).is_ready());
            (pa, block_on(b).unwrap())
        };
        // SAFETY: blocks from this queue's tier.
        unsafe {
            sq.free(pa, layout(16)).unwrap();
            sq.free(pb, layout(16)).unwrap();
        }
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
    }

    #[test]
    fn cancelled_future_never_leaks() {
        let ngm = NgmConfig::new().with_batch(8, 4).build().unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        // Cancel an unpolled cold-class submission: whether it parked
        // (discarded at the next pump) or completed at submit (block
        // freed back in Drop), nothing may leak.
        drop(sq.alloc(layout(64)).unwrap());
        // Cancel a certainly-completed ticket: warm the class so the
        // submission completes on the spot, then drop the future.
        let warm = block_on(sq.alloc(layout(64)).unwrap()).unwrap();
        // SAFETY: block from this queue's tier.
        unsafe { sq.free(warm, layout(64)).unwrap() };
        drop(sq.alloc(layout(64)).unwrap());
        sq.pump();
        drop(sq);
        let down = ngm.shutdown();
        assert_eq!(down.service.allocs, down.service.frees);
        assert_eq!(down.heap.live_blocks, 0);
    }

    /// Resumes a parked task as an executor would: polls `fut` only after
    /// a wake newer than `seen`, and panics if none comes — a parked task
    /// nobody wakes is the stall this guards against.
    #[cfg(feature = "faultinject")]
    fn resume_on_wakes<F: Future + Unpin>(
        fut: &mut F,
        (flag, waker): &(Arc<Flag>, Waker),
        mut seen: usize,
    ) -> F::Output {
        loop {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while flag.wakes() == seen {
                assert!(
                    std::time::Instant::now() < deadline,
                    "parked with no wake for 5 s"
                );
                std::thread::yield_now();
            }
            seen = flag.wakes();
            if let Poll::Ready(v) = poll_with(fut, waker) {
                return v;
            }
        }
    }

    /// The completion-path stall the benchmark met (`benchmark/README.md`,
    /// "A stall in the completion path"), hand-stepped with the wedge
    /// fault: class A's refill is refused because the slot carries class
    /// C's; C's response is then absorbed by the `try_alloc` of a *new*
    /// submission whose ticket is born ready, which leaves A's ticket
    /// parked with nothing in flight. A's task is still runnable — its
    /// last poll woke it — so A's own next poll submits A's refill, and
    /// A completes on its own polls with nobody pumping from outside.
    #[cfg(feature = "faultinject")]
    #[test]
    fn response_absorbed_at_submission_still_serves_the_refused_class() {
        let ngm = NgmConfig::new()
            .with_shards(1)
            .with_batch(2, 1)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let (task_a, task_c, task_2) = (counting_waker(), counting_waker(), counting_waker());
        let inflight = || sq.with_handle(|h| h.nb_inflight());

        ngm.fault_state(0).set_wedged(true);
        let mut fc = sq.alloc(layout(64)).unwrap(); // C's refill takes the slot
        let mut fa = sq.alloc(layout(32)).unwrap(); // A's is refused: slot busy
        assert_eq!(inflight(), 1);
        // Both tasks poll, stay pending, and each wakes itself once.
        assert!(poll_with(&mut fc, &task_c.1).is_pending());
        assert!(poll_with(&mut fa, &task_a.1).is_pending());
        assert_eq!((task_c.0.wakes(), task_a.0.wakes()), (1, 1));

        // C's response lands ...
        ngm.fault_state(0).set_wedged(false);
        while ngm.runtime_stats().calls_served < 1 {
            std::thread::yield_now();
        }
        ngm.fault_state(0).set_wedged(true);
        // ... and is absorbed by a third submission, born ready.
        let mut f2 = sq.alloc(layout(64)).unwrap();
        let Poll::Ready(Ok(p2)) = poll_with(&mut f2, &task_2.1) else {
            panic!("the magazine was just refilled: the ticket is born ready");
        };
        assert_eq!(task_2.0.wakes(), 0, "a ready poll wakes nobody");
        assert_eq!(inflight(), 0, "nothing has submitted for A yet");

        // A's own poll submits A's refill, and serves C from the
        // absorbed batch on the way.
        assert!(poll_with(&mut fa, &task_a.1).is_pending());
        assert_eq!(inflight(), 1, "A's own poll submitted its refill");
        assert_eq!(task_a.0.wakes(), 2);
        let Poll::Ready(Ok(pc)) = poll_with(&mut fc, &task_c.1) else {
            panic!("C had stock and a parked ticket");
        };
        ngm.fault_state(0).set_wedged(false);
        let pa = resume_on_wakes(&mut fa, &task_a, task_a.0.wakes() - 1).unwrap();
        // SAFETY: blocks from this queue's tier.
        unsafe {
            sq.free(pa, layout(32)).unwrap();
            sq.free(pc, layout(64)).unwrap();
            sq.free(p2, layout(64)).unwrap();
        }
        assert_eq!(sq.in_flight(), 0);
        drop((fa, fc, f2, sq)); // the futures hold the queue alive too
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.heap.live_blocks, 0);
    }

    /// Nothing but a pending future's own poll wakes its task: every
    /// pending poll fires that future's waker exactly once, a ready poll
    /// fires none, and polling on those wakes alone — no outside pump —
    /// completes every ticket of eight classes sharing one slot.
    #[test]
    fn a_pending_poll_wakes_its_own_task_and_nothing_else_is_needed() {
        let ngm = NgmConfig::new()
            .with_shards(1)
            .with_batch(2, 1)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let class = |i: usize| layout(16 * (1 + i % 8));
        let futures: Vec<_> = (0..200).map(|i| sq.alloc(class(i)).unwrap()).collect();
        let mut pending_polls = 0;
        for (i, mut fut) in futures.into_iter().enumerate() {
            let (flag, waker) = counting_waker();
            let ptr = loop {
                let seen = flag.wakes();
                match poll_with(&mut fut, &waker) {
                    Poll::Ready(r) => {
                        assert_eq!(flag.wakes(), seen, "a ready poll wakes nobody");
                        break r.unwrap();
                    }
                    Poll::Pending => {
                        assert_eq!(flag.wakes(), seen + 1, "one wake per pending poll");
                        pending_polls += 1;
                    }
                }
            };
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, class(i)).unwrap() };
        }
        assert!(
            pending_polls > 0,
            "one slot cannot have served 200 tickets up front"
        );
        assert_eq!(sq.in_flight(), 0);
        drop(sq);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.heap.live_blocks, 0);
    }

    /// On a `Backoff` tier (the default below two CPUs) a pending poll
    /// paces like a blocking client's spin and yield phases but never
    /// takes its sleep: the queue's pace stays out of the sleep phase
    /// however long it goes unrearmed, and the tickets still complete on
    /// their own wakes.
    #[test]
    fn a_backoff_tier_paces_polls_without_sleeping() {
        use ngm_offload::{WaitPhase, WaitStrategy};
        let ngm = NgmConfig::new()
            .with_shards(1)
            .with_batch(2, 1)
            .with_client_wait(WaitStrategy::Backoff)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let mut pace = sq.inner.borrow().pace;
        for _ in 0..200 {
            assert!(pace.pause());
            assert_ne!(pace.phase(), WaitPhase::Sleep);
        }
        let class = |i: usize| layout(16 * (1 + i % 8));
        let futures: Vec<_> = (0..64).map(|i| sq.alloc(class(i)).unwrap()).collect();
        for (i, fut) in futures.into_iter().enumerate() {
            let ptr = block_on(fut).unwrap();
            assert_ne!(sq.inner.borrow().pace.phase(), WaitPhase::Sleep);
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, class(i)).unwrap() };
        }
        drop(sq);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.heap.live_blocks, 0);
    }

    #[test]
    fn wouldblock_total_and_submit_depth_are_exported() {
        let ngm = NgmConfig::new()
            .with_batch(4, 2)
            .with_profile(true)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let mut held = Vec::new();
        for _ in 0..32 {
            if let Ok(f) = sq.alloc(layout(48)) {
                held.push(f);
            }
        }
        for fut in held {
            let ptr = block_on(fut).unwrap();
            // SAFETY: block from this queue's tier.
            unsafe { sq.free(ptr, layout(48)).unwrap() };
        }
        drop(sq);
        let text = ngm.metrics().to_prometheus_text();
        assert!(text.contains("ngm_inflight"), "{text}");
        assert!(text.contains("ngm_wouldblock_total"), "{text}");
        assert!(text.contains("ngm_submit_depth"), "{text}");
        ngm.shutdown();
    }
}
