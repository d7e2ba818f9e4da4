//! The malloc service: the code that runs in the allocator's own room.

use std::ptr::NonNull;
use std::sync::Arc;

use ngm_heap::classes::{SizeClass, NUM_CLASSES};
use ngm_heap::{DeadBlockStack, Heap, HeapStats, SegregatedHeap};
use ngm_offload::{Record, Service};

use crate::watch::SharedHeapStats;

/// Maximum number of addresses carried by one batched request or reply:
/// the wire's capacity, and so the ceiling of `NgmConfig::with_batch`.
///
/// 128 is one 64 KiB heap page of 512-byte blocks — a trip to the room
/// moves at most a page's worth — and four times what it was before the
/// wire learned to cost its length: the hand-off is paid per trip, not
/// per byte (§4.1), so the number of blocks that ride each one is what
/// sets the amortised cost. It is a compile-time constant rather than a
/// config knob because it sizes the inline magazines and free buffers;
/// what a *message* costs no longer depends on it (see [`AddrBatch`]).
pub const MAX_BATCH: usize = 128;

/// The malloc service's one synchronous request: a magazine refill of up
/// to [`MAX_BATCH`] blocks of one size class in a single round trip,
/// amortizing the §4.1 handshake (`count` 1 is the paper's per-call
/// handshake). Large (non-class) blocks never enter the room: handles
/// map them on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocBatchReq {
    /// The size class to refill from.
    pub class: SizeClass,
    /// How many blocks the client wants (clamped to [`MAX_BATCH`]).
    pub count: u32,
}

/// Up to [`MAX_BATCH`] block addresses, stored inline so no message ever
/// needs the heap (addresses travel as `usize` because raw pointers are
/// deliberately not `Send`). The service's one response — the refilled
/// addresses, shorter than requested or empty under memory pressure —
/// the payload of every free, and the storage of a handle's magazines
/// and free buffers.
///
/// The capacity is 1 KiB; a batch costs its length. The length comes
/// first (`repr(C)`), sharing a cache line with the first seven
/// addresses, and nothing past `len` is ever read, written, compared or
/// sent: the service fills a response in the client's slot, the client
/// copies `len` addresses out of it ([`AddrBatch::copy_from`]), and the
/// free ring carries `len + 1` words ([`FreePost`]'s `Record` impl).
/// Moving a whole `AddrBatch` by value is the one thing that does cost
/// the capacity, so the request path never does it.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct AddrBatch {
    len: usize,
    addrs: [usize; MAX_BATCH],
}

impl Default for AddrBatch {
    fn default() -> Self {
        Self::empty()
    }
}

impl PartialEq for AddrBatch {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AddrBatch {}

impl std::fmt::Debug for AddrBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl AddrBatch {
    /// An empty batch.
    pub const fn empty() -> Self {
        AddrBatch {
            len: 0,
            addrs: [0; MAX_BATCH],
        }
    }

    /// Appends an address.
    ///
    /// # Panics
    ///
    /// Panics if the batch already holds [`MAX_BATCH`] addresses.
    pub fn push(&mut self, addr: usize) {
        self.addrs[self.len] = addr;
        self.len += 1;
    }

    /// Removes and returns the most recently pushed address (LIFO). A
    /// refill is pushed in free-list order, most recently freed first,
    /// so a just-refilled magazine hands back its least recently freed
    /// block first. Handing out the most recently freed one first (the
    /// refill reversed) read slower on `xalanc_sync`, so the order stays.
    pub fn pop(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.addrs[self.len])
    }

    /// Forgets the addresses held. One store: the slots keep their old
    /// contents, which nothing reads.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Makes this batch a copy of `other` by copying the addresses
    /// `other` holds — `8 * (len + 1)` bytes, not the capacity.
    pub fn copy_from(&mut self, other: &AddrBatch) {
        self.resize(other.len).copy_from_slice(other.as_slice());
    }

    /// Sets the length and returns the addresses to be overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`MAX_BATCH`].
    fn resize(&mut self, len: usize) -> &mut [usize] {
        self.len = len;
        &mut self.addrs[..len]
    }

    /// The addresses held.
    pub fn as_slice(&self) -> &[usize] {
        &self.addrs[..self.len]
    }

    /// Number of addresses held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The malloc service's asynchronous free protocol.
///
/// On the free ring a post is one header word — the variant and the
/// length — followed by its addresses: a one-free post is one 64-byte
/// cell, a full batch seventeen ([`ngm_offload::ring`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreePost {
    /// A flushed client free buffer, however few blocks it holds:
    /// small-class addresses only — the service recovers each class from
    /// its page descriptor.
    Batch(AddrBatch),
    /// Unused addresses returned from a magazine at handle drop. Frees
    /// the blocks like [`FreePost::Batch`] but is additionally counted in
    /// [`ServiceStats::magazine_returned`], so shutdown accounting can
    /// separate application frees from never-handed-out stash.
    MagazineReturn(AddrBatch),
}

impl Default for FreePost {
    fn default() -> Self {
        FreePost::Batch(AddrBatch::empty())
    }
}

impl FreePost {
    /// The addresses this post frees.
    pub fn addrs(&self) -> &AddrBatch {
        let (FreePost::Batch(addrs) | FreePost::MagazineReturn(addrs)) = self;
        addrs
    }

    /// The addresses this post frees, for filling them in.
    pub fn addrs_mut(&mut self) -> &mut AddrBatch {
        let (FreePost::Batch(addrs) | FreePost::MagazineReturn(addrs)) = self;
        addrs
    }

    /// Whether the blocks were never handed out
    /// ([`FreePost::MagazineReturn`]) — the bit that rides the record's
    /// header as its tag.
    pub fn is_unused(&self) -> bool {
        matches!(self, FreePost::MagazineReturn(_))
    }
}

impl Record for FreePost {
    const MAX_WORDS: usize = MAX_BATCH;

    fn store<R>(&self, put: impl FnOnce(u16, &[usize]) -> R) -> R {
        put(u16::from(self.is_unused()), self.addrs().as_slice())
    }

    fn load(&mut self, tag: u16, len: usize, fill: impl FnOnce(&mut [usize])) {
        let unused = tag != 0;
        if unused != self.is_unused() {
            // The one whole-message write on the free path, and a rare
            // one: a variant cannot change under the addresses it owns,
            // and magazine returns come at handle drop and shard drain.
            *self = if unused {
                FreePost::MagazineReturn(AddrBatch::empty())
            } else {
                FreePost::default()
            };
        }
        fill(self.addrs_mut().resize(len));
    }
}

/// Counters maintained by the service (no atomics — only the service core
/// writes them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Allocation requests served.
    pub allocs: u64,
    /// Frees applied (posted + orphaned).
    pub frees: u64,
    /// Allocation requests that failed (OOM or a malformed refill).
    pub failures: u64,
    /// Orphan blocks reclaimed from the global stack.
    pub orphans_reclaimed: u64,
    /// Batched refill requests served (each hands out up to
    /// [`MAX_BATCH`] blocks, all counted in `allocs`).
    pub batch_refills: u64,
    /// Blocks that came back never handed out: client magazines returned
    /// at handle drop and refills that landed with nowhere to go, whether
    /// they arrived by post or through the orphan stack. These are counted
    /// in both `allocs` (when refilled) and `frees` (when returned), so
    /// `allocs - magazine_returned` is the number of blocks the
    /// application actually received.
    pub magazine_returned: u64,
    /// Housekeeping sweeps executed while idle.
    pub housekeeping_runs: u64,
    /// Null addresses refused in free batches; each is skipped, not
    /// applied.
    pub protocol_errors: u64,
    /// Blocks allocated inline by clients from the degradation heap while
    /// the tier was unreachable (deadlined or dead). Zero on individual
    /// shards — the fallback path bypasses every shard by definition —
    /// and folded into the merged totals at shutdown, where these blocks
    /// also count in `allocs`/`frees` so accounting still balances.
    pub fallback_allocs: u64,
}

impl ServiceStats {
    /// Blocks the application actually received: what the service handed
    /// out less what came back unused from magazines. Equals the
    /// application's malloc count at every batch size.
    pub fn app_allocs(&self) -> u64 {
        self.allocs - self.magazine_returned
    }

    /// Folds another shard's counters into this one, presenting a set of
    /// shard-owned services as one logical service. All fields sum.
    pub fn absorb(&mut self, other: &ServiceStats) {
        self.allocs += other.allocs;
        self.frees += other.frees;
        self.failures += other.failures;
        self.orphans_reclaimed += other.orphans_reclaimed;
        self.batch_refills += other.batch_refills;
        self.magazine_returned += other.magazine_returned;
        self.housekeeping_runs += other.housekeeping_runs;
        self.protocol_errors += other.protocol_errors;
        self.fallback_allocs += other.fallback_allocs;
    }
}

/// The allocator service state. Owned exclusively by the service thread;
/// note the absence of any synchronization in the hot paths.
pub struct MallocService {
    heap: SegregatedHeap,
    shard: u16,
    orphans: Arc<DeadBlockStack>,
    stats: ServiceStats,
    idle_ticks: u32,
    /// Cross-thread readable mirror of the heap stats, refreshed on idle
    /// rounds (the heap itself is atomics-free and service-owned).
    watch: Arc<SharedHeapStats>,
}

impl MallocService {
    /// How many consecutive idle rounds trigger a housekeeping sweep.
    const HOUSEKEEPING_IDLE: u32 = 10_000;

    /// Creates the service around a fresh segregated heap (shard 0).
    pub fn new(orphans: Arc<DeadBlockStack>) -> Self {
        Self::for_shard(0, orphans)
    }

    /// Creates the service as shard `shard` of a sharded tier: its heap
    /// stamps [`crate::OWNER_BASE`]` | shard` into every segment it
    /// creates, so any small-block address routes back to this shard via
    /// [`ngm_heap::owner_of_small_ptr`] — no shared map, no atomics, and
    /// the answer cannot change while the block is live.
    pub fn for_shard(shard: u16, orphans: Arc<DeadBlockStack>) -> Self {
        MallocService {
            heap: SegregatedHeap::new(crate::config::OWNER_BASE | u64::from(shard)),
            shard,
            orphans,
            stats: ServiceStats::default(),
            idle_ticks: 0,
            watch: Arc::new(SharedHeapStats::new()),
        }
    }

    /// This service's shard index within its tier (0 for a standalone
    /// service).
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The live-readable heap-stats mirror. Clone the `Arc` before
    /// handing the service to the runtime to keep observing the heap
    /// while the service thread owns it.
    pub fn heap_watch(&self) -> &Arc<SharedHeapStats> {
        &self.watch
    }

    /// Service-side counters.
    pub fn service_stats(&self) -> ServiceStats {
        self.stats
    }

    /// Heap statistics.
    pub fn heap_stats(&self) -> HeapStats {
        self.heap.stats()
    }

    /// Refills into `out`, overwriting whatever batch it held.
    fn alloc_batch(&mut self, req: AllocBatchReq, out: &mut AddrBatch) {
        out.clear();
        let count = (req.count as usize).min(MAX_BATCH);
        if (req.class.0 as usize) >= NUM_CLASSES || count == 0 {
            self.stats.failures += 1;
            return;
        }
        self.stats.batch_refills += 1;
        match self
            .heap
            .allocate_batch(req.class, count, &mut |p| out.push(p.as_ptr() as usize))
        {
            Ok(n) => {
                self.stats.allocs += n as u64;
                // A short refill is not an application-visible failure —
                // the client retries or degrades — so only a fully empty
                // reply counts as one.
            }
            Err(_) => self.stats.failures += 1,
        }
    }

    fn free_batch(&mut self, batch: &AddrBatch) {
        let nulls = batch.as_slice().iter().filter(|&&a| a == 0).count();
        if nulls > 0 {
            // A null in a free batch is a client bug; skip it and count
            // it rather than panicking the shard everyone shares.
            self.stats.protocol_errors += nulls as u64;
        }
        // SAFETY: every non-null address in a batch is a live small block
        // handed out by this heap; the client relinquished them on post.
        unsafe {
            self.heap.deallocate_batch(
                batch
                    .as_slice()
                    .iter()
                    .filter_map(|&a| NonNull::new(a as *mut u8)),
            );
        }
        self.stats.frees += (batch.len() - nulls) as u64;
    }

    /// Drains this shard's orphan stack into the heap immediately.
    ///
    /// The service loop's *stop* path drains rings but never runs another
    /// idle round, so orphans pushed late (deadline-rerouted frees, frees
    /// from handle teardown racing shutdown) would otherwise be stranded
    /// and show up as an alloc/free imbalance. [`crate::Ngm::shutdown`]
    /// calls this on each recovered service before reading its stats.
    pub fn reclaim_orphans(&mut self) {
        self.drain_orphans();
    }

    fn drain_orphans(&mut self) {
        // Move the heap out of the way of the closure borrow.
        let heap = &mut self.heap;
        let n = self.orphans.drain(|p| {
            // SAFETY: orphan blocks are live small blocks from this heap
            // (the global allocator only orphans pointers whose segment
            // magic matched).
            unsafe { heap.deallocate_by_ptr(p) };
        });
        self.stats.orphans_reclaimed += n as u64;
        self.stats.frees += n as u64;
        // Diverted magazine returns keep their tag as a count beside the
        // stack; it may trail the blocks by a round while pushers are
        // live and is exact once they are gone (shutdown).
        self.stats.magazine_returned += self.orphans.take_unused();
    }
}

impl Service for MallocService {
    type Req = AllocBatchReq;
    type Resp = AddrBatch;
    type Post = FreePost;

    fn on_start(&mut self) {
        // The service thread's own Rust allocations must never round-trip
        // to itself when NgmAllocator is the global allocator.
        crate::global::mark_allocator_thread();
    }

    fn on_stop(&mut self) {
        // The room gives its own memory back: `munmap` is a kernel trip
        // and §3.3.2 keeps those off the application core, which is where
        // dropping the heap after `shutdown()` would put it. It also keeps
        // a segment's huge pages on this CPU's free lists, where the next
        // room pinned here finds them still backed: mapped on this core
        // and freed on the caller's, every tier start paid ~10 ms per
        // huge page for never-touched guest memory on a lazily backed VM.
        // Segments that still hold a block stay, for the heap's `Drop`.
        self.drain_orphans();
        self.heap.release_empty();
        self.watch.publish(&self.heap.stats());
    }

    fn call(&mut self, req: AllocBatchReq) -> AddrBatch {
        let mut out = AddrBatch::empty();
        self.call_into(req, &mut out);
        out
    }

    fn post(&mut self, msg: FreePost) {
        self.post_ref(&msg);
    }

    fn call_into(&mut self, req: AllocBatchReq, out: &mut AddrBatch) {
        self.idle_ticks = 0;
        self.alloc_batch(req, out);
    }

    fn post_ref(&mut self, msg: &FreePost) {
        self.idle_ticks = 0;
        self.free_batch(msg.addrs());
        if msg.is_unused() {
            self.stats.magazine_returned += msg.addrs().len() as u64;
        }
    }

    fn idle(&mut self) {
        self.drain_orphans();
        self.watch.publish(&self.heap.stats());
        self.idle_ticks = self.idle_ticks.saturating_add(1);
        if self.idle_ticks == Self::HOUSEKEEPING_IDLE {
            // Deferred housekeeping is effectively free in the dedicated
            // room: no application thread is stalled by it.
            self.heap.release_empty();
            self.stats.housekeeping_runs += 1;
            self.idle_ticks = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> MallocService {
        MallocService::new(Arc::new(DeadBlockStack::new()))
    }

    /// The paper's per-call handshake: a refill of one block.
    fn alloc_one(s: &mut MallocService, size: usize) -> usize {
        let class = ngm_heap::classes::size_to_class(size).expect("small class");
        refill(s, class, 1).pop().unwrap_or(0)
    }

    /// A free buffer flushed at one block.
    fn free_one(s: &mut MallocService, addr: usize) {
        let mut b = AddrBatch::empty();
        b.push(addr);
        s.post(FreePost::Batch(b));
    }

    fn refill(s: &mut MallocService, class: SizeClass, count: u32) -> AddrBatch {
        s.call(AllocBatchReq { class, count })
    }

    /// `len` addresses counting up from `seed`.
    fn run(len: usize, seed: usize) -> AddrBatch {
        let mut b = AddrBatch::empty();
        (0..len).for_each(|i| b.push(seed + i));
        b
    }

    /// Those addresses as a post of either kind.
    fn post(unused: bool, addrs: AddrBatch) -> FreePost {
        if unused {
            FreePost::MagazineReturn(addrs)
        } else {
            FreePost::Batch(addrs)
        }
    }

    /// Every length twice over, short and long side by side: 0, 128, 1,
    /// 127, … so each message lands over the remains of one of very
    /// different length.
    fn interleaved_lengths() -> impl Iterator<Item = usize> {
        (0..=MAX_BATCH).flat_map(|i| [i, MAX_BATCH - i])
    }

    #[test]
    fn every_length_survives_the_slot() {
        use ngm_offload::RequestSlot;
        let slot: RequestSlot<usize, AddrBatch> = RequestSlot::new();
        let mut magazine = AddrBatch::empty();
        for (round, len) in interleaved_lengths().enumerate() {
            let sent = run(len, round * 1000 + 1);
            assert!(slot.begin(len).is_ok());
            assert!(slot.serve(
                |_| None,
                |len, out| {
                    // As `alloc_batch` fills a response: over the last one.
                    out.clear();
                    assert_eq!(len, sent.len());
                    sent.as_slice().iter().for_each(|&a| out.push(a));
                }
            ));
            slot.poll_response(|resp| magazine.copy_from(resp))
                .expect("served");
            assert_eq!(magazine.as_slice(), sent.as_slice(), "length {len}");
        }
    }

    #[test]
    fn every_length_and_tag_survives_the_ring() {
        // A ring of two largest posts, so it wraps every other message
        // and a post of any length is split at the wrap sooner or later.
        let (mut tx, mut rx) = ngm_offload::spsc::<FreePost>(1);
        assert_eq!(tx.capacity(), 32);
        for (round, len) in interleaved_lengths().enumerate() {
            let sent = post(round % 3 == 0, run(len, round * 1000 + 1));
            tx.push_ref(&sent).expect("room for one");
            assert_eq!(tx.len(), (len + 1).div_ceil(8), "cells for {len} addresses");
            assert_eq!(rx.pop_ref(), Some(&sent), "length {len}, round {round}");
        }
    }

    #[test]
    fn a_backlog_of_mixed_posts_keeps_order_tag_and_addresses() {
        // 128 KiB would never fill; 64 cells back up after a few posts,
        // so short and long ones queue next to each other across the
        // wrap and every refusal is checked too.
        let (mut tx, mut rx) = ngm_offload::spsc::<FreePost>(64);
        let mut queued = std::collections::VecDeque::new();
        for (round, len) in interleaved_lengths().enumerate() {
            let sent = post(round % 2 == 0, run(len, round * 1000 + 1));
            while let Err(refused) = tx.push(sent) {
                let ngm_offload::ring::PushError::Full(back) = refused else {
                    panic!("the consumer is alive: {refused:?}");
                };
                assert_eq!(back, sent, "refused: same variant, same addresses");
                assert_eq!(rx.pop(), queued.pop_front(), "oldest first");
            }
            queued.push_back(sent);
        }
        while let Some(got) = rx.pop() {
            assert_eq!(Some(got), queued.pop_front());
        }
        assert!(queued.is_empty());
    }

    #[test]
    fn a_post_costs_its_length_in_cells() {
        let (mut tx, mut rx) = ngm_offload::spsc::<FreePost>(ngm_offload::DEFAULT_RING_CELLS);
        assert_eq!(tx.capacity() * ngm_offload::CELL_BYTES, 128 * 1024);
        for (addrs, cells) in [(1, 1), (7, 1), (8, 2), (32, 5), (MAX_BATCH, 17)] {
            tx.push_ref(&FreePost::Batch(run(addrs, 1))).unwrap();
            assert_eq!(tx.len(), cells, "{addrs} addresses");
            assert_eq!(rx.pop_ref().map(|p| p.addrs().len()), Some(addrs));
        }
    }

    #[test]
    fn a_request_fits_the_line_the_service_claims() {
        // `ngm-offload`'s `a_trip_reads_one_line` lays a slot out with an
        // 8-byte request stand-in; this keeps the stand-in faithful, so a
        // refill's request and a three-block response's length and
        // addresses stay on the slot's first line.
        assert!(std::mem::size_of::<AllocBatchReq>() <= 8);
        assert!(std::mem::align_of::<AllocBatchReq>() <= 8);
    }

    #[test]
    fn a_short_batch_leaves_the_rest_of_the_capacity_alone() {
        // What makes a message cost its length: nothing past `len` is
        // written — not by a refill into a response, not by the copy
        // into a magazine, not by a decode off the ring.
        let stale = run(MAX_BATCH, 0xAAAA_0000);
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(64).expect("small class");

        let mut response = stale;
        s.call_into(AllocBatchReq { class, count: 3 }, &mut response);
        assert_eq!(response.len(), 3);
        assert_eq!(response.addrs[3..], stale.addrs[3..], "refill");

        let mut magazine = stale;
        magazine.copy_from(&response);
        assert_eq!(magazine, response);
        assert_eq!(magazine.addrs[3..], stale.addrs[3..], "copy");

        let mut decoded = FreePost::Batch(stale);
        FreePost::Batch(response).store(|tag, words| {
            decoded.load(tag, words.len(), |dst| dst.copy_from_slice(words));
        });
        assert_eq!(decoded, FreePost::Batch(response));
        assert_eq!(decoded.addrs().addrs[3..], stale.addrs[3..], "decode");

        s.post_ref(&decoded);
        assert_eq!(s.service_stats().frees, 3);
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn a_decode_follows_the_tag_over_either_variant() {
        // PR 18's bug was a magazine return losing its tag on a detour;
        // on the wire the tag is a header bit decoded over whatever the
        // consumer last held.
        let mut decoded = FreePost::default();
        for (unused, len) in [(true, 5), (true, 2), (false, 9), (true, 0), (false, 1)] {
            let sent = post(unused, run(len, 77));
            sent.store(|tag, words| {
                assert_eq!(tag, u16::from(unused));
                decoded.load(tag, words.len(), |dst| dst.copy_from_slice(words));
            });
            assert_eq!(decoded, sent);
            assert_eq!(decoded.is_unused(), unused);
        }
    }

    #[test]
    fn call_allocates_and_post_frees() {
        let mut s = svc();
        let addr = alloc_one(&mut s, 128);
        assert_ne!(addr, 0);
        // SAFETY: we own the fresh block.
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x77, 128) };
        free_one(&mut s, addr);
        assert_eq!(s.service_stats().allocs, 1);
        assert_eq!(s.service_stats().frees, 1);
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn zero_count_refill_fails_cleanly() {
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(64).expect("small class");
        assert!(refill(&mut s, class, 0).is_empty());
        assert_eq!(s.service_stats().failures, 1);
    }

    #[test]
    fn batch_refill_hands_out_distinct_writable_blocks() {
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(64).expect("64 is a small class");
        let b = refill(&mut s, class, 16);
        assert_eq!(b.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for &addr in b.as_slice() {
            assert!(seen.insert(addr), "address {addr:#x} handed out twice");
            assert_eq!(addr % 64, 0, "class-64 block misaligned");
            // SAFETY: fresh live block of 64 bytes.
            unsafe { std::ptr::write_bytes(addr as *mut u8, 0xAB, 64) };
        }
        let st = s.service_stats();
        assert_eq!(st.allocs, 16);
        assert_eq!(st.batch_refills, 1);
        s.post(FreePost::Batch(b));
        let st = s.service_stats();
        assert_eq!(st.frees, 16);
        assert_eq!(st.magazine_returned, 0);
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn batch_count_is_clamped_to_max() {
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(64).expect("small class");
        let b = refill(&mut s, class, u32::MAX);
        assert_eq!(b.len(), MAX_BATCH);
        s.post(FreePost::Batch(b));
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn invalid_class_refill_fails_cleanly() {
        let mut s = svc();
        let b = refill(&mut s, SizeClass(NUM_CLASSES as u16), 8);
        assert!(b.is_empty());
        assert_eq!(s.service_stats().allocs, 0);
        assert_eq!(s.service_stats().failures, 1, "one failed request");
    }

    #[test]
    fn magazine_return_balances_but_is_separable() {
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(256).expect("small class");
        let b = refill(&mut s, class, 8);
        assert_eq!(b.len(), 8);
        // Client used none of them and dropped its handle.
        s.post(FreePost::MagazineReturn(b));
        let st = s.service_stats();
        assert_eq!(st.allocs, 8);
        assert_eq!(st.frees, 8);
        assert_eq!(st.magazine_returned, 8);
        assert_eq!(st.app_allocs(), 0, "app received nothing");
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn null_frees_are_counted_not_fatal() {
        let mut s = svc();
        let real = alloc_one(&mut s, 64);
        // A batch with a null entry frees the rest.
        let mut b = AddrBatch::empty();
        b.push(real);
        b.push(0);
        s.post(FreePost::Batch(b));
        assert_eq!(s.service_stats().frees, 1);
        assert_eq!(s.service_stats().protocol_errors, 1);
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn shard_service_stamps_routable_owner_ids() {
        let mut a = MallocService::for_shard(0, Arc::new(DeadBlockStack::new()));
        let mut b = MallocService::for_shard(3, Arc::new(DeadBlockStack::new()));
        assert_eq!(b.shard(), 3);
        let pa = alloc_one(&mut a, 64);
        let pb = alloc_one(&mut b, 64);
        // SAFETY: both are live small blocks from segregated heaps.
        unsafe {
            let oa = ngm_heap::owner_of_small_ptr(NonNull::new(pa as *mut u8).unwrap());
            let ob = ngm_heap::owner_of_small_ptr(NonNull::new(pb as *mut u8).unwrap());
            assert_eq!(oa, crate::config::OWNER_BASE);
            assert_eq!(ob, crate::config::OWNER_BASE | 3);
        }
        free_one(&mut a, pa);
        free_one(&mut b, pb);
    }

    #[test]
    fn service_stats_absorb_sums_all_fields() {
        let a = ServiceStats {
            allocs: 1,
            frees: 2,
            failures: 3,
            orphans_reclaimed: 4,
            batch_refills: 5,
            magazine_returned: 6,
            housekeeping_runs: 7,
            protocol_errors: 8,
            fallback_allocs: 9,
        };
        let mut m = a;
        m.absorb(&a);
        assert_eq!(m.allocs, 2);
        assert_eq!(m.frees, 4);
        assert_eq!(m.failures, 6);
        assert_eq!(m.orphans_reclaimed, 8);
        assert_eq!(m.batch_refills, 10);
        assert_eq!(m.magazine_returned, 12);
        assert_eq!(m.housekeeping_runs, 14);
        assert_eq!(m.protocol_errors, 16);
        assert_eq!(m.fallback_allocs, 18);
    }

    #[test]
    fn orphans_reclaimed_on_idle() {
        let mut s = svc();
        let addr = alloc_one(&mut s, 64);
        let orphans = Arc::clone(&s.orphans);
        // SAFETY: the block is live, we relinquish it to the stack.
        unsafe { orphans.push(NonNull::new(addr as *mut u8).unwrap()) };
        s.idle();
        assert_eq!(s.service_stats().orphans_reclaimed, 1);
        assert_eq!(s.heap_stats().live_blocks, 0);
    }

    #[test]
    fn an_idle_room_maps_nothing() {
        let mut s = svc();
        let class = ngm_heap::classes::size_to_class(64).expect("small class");
        let batches: Vec<_> = (0..1_000).map(|_| refill(&mut s, class, 128)).collect();
        for b in batches {
            s.post(FreePost::Batch(b));
        }
        assert_eq!(s.heap_stats().live_blocks, 0);
        // A page is assigned only when a refill needs one: once the first
        // sweep has given the empty segments back, no idle round maps or
        // assigns anything, however long the lull.
        for round in 1..=MallocService::HOUSEKEEPING_IDLE * 40 {
            s.idle();
            if round >= MallocService::HOUSEKEEPING_IDLE {
                let h = s.heap_stats();
                assert_eq!((h.segments, h.pages_in_use), (0, 0), "idle round {round}");
            }
        }
        assert_eq!(s.service_stats().housekeeping_runs, 40);
    }

    #[test]
    fn idle_publishes_heap_stats_to_watch() {
        let mut s = svc();
        let watch = Arc::clone(s.heap_watch());
        assert_eq!(watch.load().live_blocks, 0);
        let _addr = alloc_one(&mut s, 64);
        s.idle();
        assert_eq!(watch.load().live_blocks, 1);
        assert_eq!(watch.load(), s.heap_stats());
    }

    #[test]
    fn housekeeping_fires_after_long_idle() {
        let mut s = svc();
        // Allocate and free so a segment exists but is empty.
        let addr = alloc_one(&mut s, 64);
        free_one(&mut s, addr);
        assert_eq!(s.heap_stats().segments, 1);
        for _ in 0..MallocService::HOUSEKEEPING_IDLE {
            s.idle();
        }
        assert_eq!(s.service_stats().housekeeping_runs, 1);
        assert_eq!(s.heap_stats().segments, 0);
    }
}
