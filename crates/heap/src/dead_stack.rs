//! The dead-block stack: a lock-free multi-producer stack threaded
//! through the freed blocks it holds.
//!
//! A small block is at least 16 bytes, and once freed nobody reads it, so
//! its first word can carry the link (Mimalloc's thread-delayed free).
//! Any thread pushes with one CAS; the single owner takes the whole list
//! with one swap and walks it. Two things in the tree are this stack:
//!
//! * [`crate::ShardedHeap`]'s remote-free queue — the per-free atomic RMW
//!   a conventional UMA pays on cross-thread frees, and (because the list
//!   runs through user blocks) the remote-line traffic of Table 2.
//! * `ngm-core`'s orphan stack — frees that cannot reach their shard's
//!   ring (no client handle in a thread-local destructor, a dead or
//!   deadlined shard) wait here for the service core's next idle round.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// A multi-producer intrusive stack of dead small blocks.
#[derive(Debug, Default)]
pub struct DeadBlockStack {
    head: AtomicPtr<u8>,
    pushed: AtomicU64,
    drained: AtomicU64,
    /// Pushes of blocks the application never received, not yet taken by
    /// [`DeadBlockStack::take_unused`].
    unused: AtomicU64,
}

impl DeadBlockStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a dead block, storing the old head in its first word.
    ///
    /// # Safety
    ///
    /// `ptr` must be a small block (≥ 8 writable bytes) owned by the
    /// pusher (just freed, not yet recycled) and must remain mapped until
    /// drained.
    pub unsafe fn push(&self, ptr: NonNull<u8>) {
        let mut old = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: we own the dead block; its first word is scratch.
            unsafe { ptr.as_ptr().cast::<*mut u8>().write(old) };
            // Release pairs with the Acquire swap in `drain`, which must
            // see the link written above.
            match self.head.compare_exchange_weak(
                old,
                ptr.as_ptr(),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => old = cur,
            }
        }
        self.pushed.fetch_add(1, Ordering::Relaxed);
    }

    /// [`DeadBlockStack::push`] for a block that was handed out by the
    /// heap but never reached the application (an unused magazine slot
    /// going home), counted so the drainer can tell it from an
    /// application free.
    ///
    /// # Safety
    ///
    /// As [`DeadBlockStack::push`].
    pub unsafe fn push_unused(&self, ptr: NonNull<u8>) {
        // SAFETY: forwarded contract.
        unsafe { self.push(ptr) };
        self.unused.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops the whole list and feeds each block to `f`.
    ///
    /// Intended for the single consumer (the owning heap's thread);
    /// concurrent calls are safe but split the list arbitrarily.
    pub fn drain(&self, mut f: impl FnMut(NonNull<u8>)) -> usize {
        let mut cur = self.head.swap(std::ptr::null_mut(), Ordering::Acquire);
        let mut n = 0usize;
        while let Some(p) = NonNull::new(cur) {
            // SAFETY: nodes were pushed via `push`, which stored the next
            // pointer in the first word; blocks stay mapped per contract.
            cur = unsafe { p.as_ptr().cast::<*mut u8>().read() };
            f(p);
            n += 1;
        }
        self.drained.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Blocks ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Blocks ever drained.
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// How many [`DeadBlockStack::push_unused`] pushes completed since
    /// the last call. A pusher counts after its CAS, so a drain that races
    /// it may see the block one call before its count: sums over calls
    /// are monotone, and exact once the pushers are done.
    pub fn take_unused(&self) -> u64 {
        self.unused.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> NonNull<u8> {
        let b: Box<[u8; 64]> = Box::new([0; 64]);
        NonNull::new(Box::into_raw(b).cast::<u8>()).unwrap()
    }

    unsafe fn free_block(p: NonNull<u8>) {
        // SAFETY: created by `block`.
        drop(unsafe { Box::from_raw(p.as_ptr().cast::<[u8; 64]>()) });
    }

    #[test]
    fn push_drain_roundtrip() {
        let s = DeadBlockStack::new();
        let a = block();
        let b = block();
        // SAFETY: blocks owned, stay mapped.
        unsafe {
            s.push(a);
            s.push(b);
        }
        let mut got = Vec::new();
        assert_eq!(s.drain(|p| got.push(p)), 2);
        assert_eq!(got, vec![b, a], "LIFO order");
        assert_eq!(s.pushed(), 2);
        assert_eq!(s.drained(), 2);
        for p in got {
            // SAFETY: reclaimed from the stack exactly once.
            unsafe { free_block(p) };
        }
    }

    #[test]
    fn drain_empty_is_zero() {
        let s = DeadBlockStack::new();
        assert_eq!(s.drain(|_| panic!("no blocks")), 0);
    }

    #[test]
    fn unused_pushes_are_ordinary_pushes_counted_apart() {
        let s = DeadBlockStack::new();
        // SAFETY: blocks owned, stay mapped.
        unsafe {
            s.push(block());
            s.push_unused(block());
            s.push_unused(block());
        }
        assert_eq!(s.pushed(), 3);
        let mut n = 0;
        s.drain(|p| {
            n += 1;
            // SAFETY: sole consumer reclaims each block once.
            unsafe { free_block(p) };
        });
        assert_eq!((n, s.drained()), (3, 3));
        assert_eq!(s.take_unused(), 2);
        assert_eq!(s.take_unused(), 0, "taken once");
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        use std::sync::Arc;
        let s = Arc::new(DeadBlockStack::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    // SAFETY: fresh blocks, never touched again by pusher.
                    unsafe { s.push(block()) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut n = 0;
        s.drain(|p| {
            n += 1;
            // SAFETY: sole consumer reclaims each block once.
            unsafe { free_block(p) };
        });
        assert_eq!(n, 1000);
    }
}
