//! The blocking shell of the old completion front-end.
//!
//! There is one request path: [`SubmissionQueue`] runs every call on the
//! blocking [`NgmHandle::alloc`] / [`NgmHandle::dealloc`] and hands back
//! futures that are ready on their first poll. Nothing is ever in
//! flight, so nothing needs pumping, pacing or waking. The module keeps
//! only the surface `benchmark/` compiles against, and survives only
//! until ROADMAP item 1(b) deletes it.

use std::alloc::Layout;
use std::cell::RefCell;
use std::future::{ready, Ready};
use std::ptr::NonNull;
use std::rc::Rc;

use crate::api::NgmHandle;
use crate::config::NgmError;

/// An [`NgmHandle`] behind the old submission-queue surface. Survives
/// only until ROADMAP item 1(b) deletes it.
#[derive(Clone)]
pub struct SubmissionQueue {
    handle: Rc<RefCell<NgmHandle>>,
}

impl SubmissionQueue {
    /// Wraps `handle`. Survives only until ROADMAP item 1(b) deletes it.
    pub fn new(handle: NgmHandle) -> Self {
        SubmissionQueue {
            handle: Rc::new(RefCell::new(handle)),
        }
    }

    /// [`NgmHandle::alloc`], already complete: the outer `Result` is
    /// always `Ok`, and dropping the future unpolled leaks its block.
    /// Survives only until ROADMAP item 1(b) deletes it.
    ///
    /// # Errors
    ///
    /// Never; the allocation's own failure is the future's output.
    pub fn alloc(&self, layout: Layout) -> Result<Ready<Result<NonNull<u8>, NgmError>>, NgmError> {
        let result = self.handle.borrow_mut().alloc(layout);
        Ok(ready(result.map_err(NgmError::Alloc)))
    }

    /// [`NgmHandle::dealloc`]; always `Ok`. Survives only until ROADMAP
    /// item 1(b) deletes it.
    ///
    /// # Errors
    ///
    /// Never.
    ///
    /// # Safety
    ///
    /// As [`NgmHandle::dealloc`].
    pub unsafe fn free(&self, ptr: NonNull<u8>, layout: Layout) -> Result<(), NgmError> {
        // SAFETY: forwarded contract.
        unsafe { self.handle.borrow_mut().dealloc(ptr, layout) };
        Ok(())
    }

    /// Resolves at once. Survives only until ROADMAP item 1(b) deletes it.
    pub fn ready(&self) -> Ready<()> {
        ready(())
    }

    /// Returns 0: nothing is in flight. Survives only until ROADMAP item
    /// 1(b) deletes it.
    pub fn pump(&self) -> usize {
        0
    }

    /// Returns 0: nothing is in flight. Survives only until ROADMAP item
    /// 1(b) deletes it.
    pub fn in_flight(&self) -> usize {
        0
    }

    /// Runs `f` against the wrapped handle. Survives only until ROADMAP
    /// item 1(b) deletes it.
    pub fn with_handle<T>(&self, f: impl FnOnce(&mut NgmHandle) -> T) -> T {
        f(&mut self.handle.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NgmConfig;
    use std::future::Future;
    use std::pin::{pin, Pin};
    use std::task::{Context, Poll, Waker};

    /// The contract `benchmark/` relies on: every future is ready on its
    /// first poll, nothing is ever in flight, and the books close.
    #[test]
    fn every_future_is_ready_on_its_first_poll() {
        let ngm = NgmConfig::new()
            .with_shards(1)
            .with_batch(2, 1)
            .build()
            .unwrap();
        let sq = SubmissionQueue::new(ngm.handle());
        let mut cx = Context::from_waker(Waker::noop());
        let class = |i: usize| Layout::from_size_align(16 * (1 + i % 8), 8).unwrap();
        let futures: Vec<_> = (0..2_000)
            .map(|i| {
                let fut = sq.alloc(class(i)).unwrap();
                assert_eq!(sq.in_flight(), 0);
                fut
            })
            .collect();
        let (mut sum, mut expected) = (0u64, 0u64);
        for (i, mut fut) in futures.into_iter().enumerate() {
            let Poll::Ready(Ok(p)) = Pin::new(&mut fut).poll(&mut cx) else {
                panic!("future {i} was not ready on its first poll");
            };
            let len = class(i).size();
            // SAFETY: a fresh block of `len` bytes, read back before it
            // is freed once.
            unsafe {
                p.as_ptr().write_bytes(i as u8, len);
                sum += (0..len).map(|k| u64::from(*p.as_ptr().add(k))).sum::<u64>();
                sq.free(p, class(i)).unwrap();
            }
            expected += u64::from(i as u8) * len as u64;
            assert_eq!(sq.in_flight(), 0);
            assert!(pin!(sq.ready()).poll(&mut cx).is_ready());
            assert_eq!(sq.pump(), 0);
        }
        assert_eq!(sum, expected, "checksum");
        drop(sq);
        let down = ngm.shutdown();
        assert!(down.clean() && down.balanced(), "{down:?}");
        assert_eq!(down.service.app_allocs(), 2_000);
        assert_eq!(down.heap.live_blocks, 0);
    }
}
