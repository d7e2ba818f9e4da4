//! The application side of a trace replay: one loop, instantiated for
//! the reference allocator and for each layer of the program, so both
//! sides of a paired round execute the identical event stream with the
//! identical non-allocator work.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::time::{Duration, Instant};

use crate::adapter::{Alloc, Event};
use crate::spans::Tracer;

/// A generated event stream plus the facts the benchmark derives from it
/// once, during set-up.
pub struct Trace {
    /// The stream, in program order.
    pub events: Vec<Event>,
    /// Malloc events.
    pub mallocs: u64,
    /// Free events.
    pub frees: u64,
    /// Index just past the event at which requested live bytes peak.
    pub peak_idx: usize,
    /// Requested bytes live at `peak_idx`.
    pub peak_live_bytes: u64,
    /// FNV-1a over every field of every event, in order.
    pub fingerprint: u64,
    /// One more than the largest object id (ids are dense from 1).
    pub id_span: usize,
}

impl Trace {
    /// Scans `events` once.
    ///
    /// # Panics
    ///
    /// Panics on a stream that frees an id it never allocated.
    pub fn new(events: Vec<Event>) -> Trace {
        let mut sizes: Vec<u32> = Vec::new();
        let mut fnv = Fnv::new();
        let (mut mallocs, mut frees) = (0u64, 0u64);
        let (mut live, mut peak_live_bytes, mut peak_idx) = (0u64, 0u64, 0usize);
        for (i, e) in events.iter().enumerate() {
            match *e {
                Event::Malloc { thread, id, size } => {
                    fnv.words(&[0, u64::from(thread), id, u64::from(size)]);
                    let id = id as usize;
                    if id >= sizes.len() {
                        sizes.resize(id + 1, 0);
                    }
                    sizes[id] = size;
                    mallocs += 1;
                    live += u64::from(size);
                    if live > peak_live_bytes {
                        peak_live_bytes = live;
                        peak_idx = i + 1;
                    }
                }
                Event::Free { thread, id } => {
                    fnv.words(&[1, u64::from(thread), id]);
                    frees += 1;
                    live -= u64::from(sizes[id as usize]);
                }
                Event::Touch {
                    thread,
                    id,
                    offset,
                    len,
                    write,
                } => fnv.words(&[
                    2,
                    u64::from(thread),
                    id,
                    u64::from(offset),
                    u64::from(len),
                    u64::from(write),
                ]),
                Event::Compute { thread, amount } => {
                    fnv.words(&[3, u64::from(thread), u64::from(amount)]);
                }
            }
        }
        Trace {
            mallocs,
            frees,
            peak_idx,
            peak_live_bytes,
            fingerprint: fnv.0,
            id_span: sizes.len(),
            events,
        }
    }

    /// Share of events that are allocator operations.
    pub fn alloc_op_share(&self) -> f64 {
        (self.mallocs + self.frees) as f64 / self.events.len() as f64
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in each word's eight little-endian bytes.
    pub fn words(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// A live object as the replaying application remembers it.
#[derive(Clone, Copy)]
pub struct Slot {
    ptr: *mut u8,
    size: u32,
    written: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        ptr: std::ptr::null_mut(),
        size: 0,
        written: false,
    };
}

/// The application's id → block table. Ids are dense, so it is a flat
/// vector allocated once in set-up: the timed passes never touch the
/// process allocator for bookkeeping, and both sides of a round walk the
/// same table.
pub struct Table(Vec<Slot>);

impl Table {
    /// A table for `trace`.
    pub fn for_trace(trace: &Trace) -> Table {
        Table(vec![Slot::EMPTY; trace.id_span])
    }

    /// Objects currently live.
    pub fn live(&self) -> usize {
        self.0.iter().filter(|s| !s.ptr.is_null()).count()
    }
}

/// What one pass over a stream did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall: Duration,
    /// Malloc events attempted.
    pub mallocs: u64,
    /// Free events attempted.
    pub frees: u64,
    /// Mallocs that returned no block.
    pub failed_mallocs: u64,
    /// Frees of blocks whose malloc had failed.
    pub failed_frees: u64,
    /// Sum of every byte read back from blocks the stream wrote — equal
    /// for any two allocators that hand out usable, disjoint memory.
    pub checksum: u64,
}

impl Pass {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.failed_mallocs + self.failed_frees
    }
}

fn layout_for(size: u32) -> Layout {
    Layout::from_size_align(size.max(1) as usize, 8).expect("valid layout")
}

/// Writes or reads every eighth byte of `len` bytes at `p + offset`.
///
/// # Safety
///
/// The block is live and at least `offset + len` bytes long.
#[inline]
unsafe fn touch(p: *mut u8, offset: u32, len: u32, write: bool, stamp: u8) -> u64 {
    let mut sum = 0u64;
    // SAFETY: in bounds per contract.
    let base = unsafe { p.add(offset as usize) };
    let mut i = 0u32;
    while i < len {
        // SAFETY: i < len, in bounds per contract.
        let q = unsafe { base.add(i as usize) };
        if write {
            // SAFETY: as above.
            unsafe { q.write(stamp.wrapping_add(i as u8)) };
        } else {
            // SAFETY: as above; generators only read what they wrote.
            sum = sum.wrapping_add(u64::from(unsafe { q.read() }));
        }
        i += 8;
    }
    sum
}

/// `amount / 64` multiply-accumulate steps: the stand-in for the
/// application's own instructions between allocator calls, so allocator
/// time is a share of the pass, as it is in the paper's workloads.
#[inline]
fn compute(amount: u32) {
    let mut acc = 0u64;
    for i in 0..(amount / 64).max(1) {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(u64::from(i));
    }
    std::hint::black_box(acc);
}

/// Replays `events` against `a`. Objects still live when the slice ends
/// stay in `table`, so a stream can be replayed in two halves.
///
/// # Panics
///
/// Panics on a touch of an id that is not live (malformed stream).
pub fn replay<A: Alloc, T: Tracer>(
    a: &mut A,
    events: &[Event],
    table: &mut Table,
    tr: &mut T,
) -> Pass {
    let table = &mut table.0[..];
    let mut out = Pass::default();
    let mut stamp = 0u8;
    let start = Instant::now();
    for e in events {
        match *e {
            Event::Malloc { id, size, .. } => {
                let t = tr.now();
                let p = a.alloc(layout_for(size));
                tr.close(A::ALLOC_SPAN, t);
                out.mallocs += 1;
                table[id as usize] = match p {
                    Some(p) => Slot {
                        ptr: p.as_ptr(),
                        size,
                        written: false,
                    },
                    None => {
                        out.failed_mallocs += 1;
                        Slot::EMPTY
                    }
                };
            }
            Event::Free { id, .. } => {
                let s = std::mem::replace(&mut table[id as usize], Slot::EMPTY);
                out.frees += 1;
                let Some(p) = NonNull::new(s.ptr) else {
                    out.failed_frees += 1;
                    continue;
                };
                if s.written {
                    // A destructor's last look at the object: folds what
                    // the block holds at the end of its life into the
                    // checksum, so write-only streams are checked too.
                    // SAFETY: live block of at least one byte.
                    out.checksum = out
                        .checksum
                        .wrapping_add(u64::from(unsafe { p.as_ptr().read() }));
                }
                let t = tr.now();
                // SAFETY: the block came from `a` with this layout and
                // its slot was just cleared.
                unsafe { a.free(p, layout_for(s.size)) };
                tr.close(A::FREE_SPAN, t);
            }
            Event::Touch {
                id,
                offset,
                len,
                write,
                ..
            } => {
                let s = &mut table[id as usize];
                if s.ptr.is_null() {
                    continue; // its malloc failed and was counted
                }
                assert!(offset + len <= s.size.max(1), "touch out of bounds");
                stamp = stamp.wrapping_add(1);
                s.written |= write && offset == 0 && len > 0;
                let t = tr.now();
                // SAFETY: live block, range checked above.
                let sum = unsafe { touch(s.ptr, offset, len, write, stamp) };
                tr.close("app.touch", t);
                out.checksum = out.checksum.wrapping_add(sum);
            }
            Event::Compute { amount, .. } => {
                let t = tr.now();
                compute(amount);
                tr.close("app.compute", t);
            }
        }
    }
    out.wall = start.elapsed();
    out
}
