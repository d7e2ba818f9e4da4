//! The per-thread [`NgmHandle`]: its clients, magazines and free
//! buffers, and the one request path — `alloc` / `dealloc`, which wait
//! out every round trip and full ring under the tier's deadline. A
//! batched refill is published when its class's magazine runs dry and
//! collected by the class's next alloc, so a shard carries at most one
//! request of this handle in flight between calls.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Arc;

use ngm_heap::classes::{class_to_size, layout_to_class, SizeClass, NUM_CLASSES};
use ngm_heap::segment::PAGE_SIZE;
use ngm_heap::AllocError;
use ngm_offload::{CallKind, ClientHandle, RuntimeStats, ServiceError};
use ngm_telemetry::trace::TraceEventKind;

use super::routing::RouteOp;
use super::slot::Tier;
use super::tier::FailureReason;
use crate::config::{FALLBACK_OWNER, OWNER_BASE};
use crate::service::{AddrBatch, AllocBatchReq, FreePost, MallocService};

/// A per-thread endpoint to the allocator tier.
///
/// Small blocks have one path whatever the batch size. The handle keeps
/// a per-size-class **magazine** of pre-handed-out addresses: every
/// small `alloc` is a pop from an inline array (no round trip, no
/// atomics — the handle is `!Sync`, so this state is L1-resident and
/// single-owner per §3.1.3), and one [`AllocBatchReq`] refill round trip
/// is paid every `batch_size` allocs (128 by default) — or, for the
/// classes where that many blocks would outgrow a 64 KiB heap page, every
/// page's worth (64 blocks at 1 KiB, 8 at 8 KiB, 4 at 16 KiB), so a
/// refill is sized by bytes as well as by count. The pop that empties a
/// magazine publishes that class's next refill and returns; the class's
/// next alloc collects it, usually already answered, so the round trip
/// runs while the application works. A magazine never holds more than
/// one refill, and a shard never carries more than one refill of this
/// handle in flight, so the handle stashes at most a page per class plus
/// one refill in flight per shard. A trip to the room costs the same
/// whatever it carries, so it carries a page's worth; what it carries
/// costs its length — the service writes the addresses into the slot,
/// this handle copies them from there into the magazine, and nothing
/// moves a whole [`AddrBatch`]. Symmetrically, every small free is
/// pushed onto a per-owning-shard buffer that is flushed as one batched
/// post every `flush_threshold` frees, straight from the buffer into
/// the ring. `with_batch(1, 1)` is the paper's per-call handshake
/// through this same code: a refill of one block per alloc, one
/// synchronous round trip that nothing sends ahead, and a flush of one
/// block per free.
///
/// Large layouts — above the class table's 16 KiB ceiling, or aligned
/// beyond it — never enter the room: each is a dedicated mapping made
/// and released on the calling thread — the kernel already serializes
/// them and one block can never amortise a round trip — with the tier's
/// shared [`ngm_heap::LargeBlocks`] ledger keeping the books. There is
/// no cache of mappings in front of it: the blocks a trace allocates
/// often enough to want one (xalanc's 8–10 KB strings) are class blocks.
///
/// All routing state (class map, magazines, free buffers, pressure
/// counters) is handle-local: no shared writes, no atomics on the fast
/// path, and two handles may route the same class differently without
/// coordinating — frees are address-pure, so it cannot matter.
pub struct NgmHandle {
    /// The tier: its slots (stats, telemetry, orphan stacks) and the
    /// tier-wide state (batch sizes, fallback heap, large-block ledger,
    /// control ring). The handle's one reference into it.
    pub(super) tier: Arc<Tier>,
    /// This handle's half of every shard, indexed by slot.
    pub(super) ends: Box<[End]>,
    /// One magazine per size class, inline so no allocation ever happens
    /// on the fast path (crucial under the global-allocator adapter):
    /// 36 × 1 KiB, which makes a handle ≈ 37 KiB. Only what is stashed is
    /// ever touched.
    magazines: [AddrBatch; NUM_CLASSES],
    /// Which shard refilled each class's magazine, or has its next refill
    /// in flight. A magazine refills only when empty, so every address in
    /// it shares this one source — returns at drop go back where the
    /// blocks came from even if the class has since been rebalanced
    /// elsewhere.
    mag_shard: [u16; NUM_CLASSES],
    /// Where this handle's *allocation* traffic for each class goes.
    /// Rebalancing rewrites this map; frees never consult it.
    pub(super) class_shard: [u16; NUM_CLASSES],
}

/// A handle's own half of one shard: everything it keeps per slot, in
/// one place (the slot's shared half is [`super::slot::Slot`]).
pub(super) struct End {
    /// The client endpoint, registered with the shard's thread when the
    /// handle was built.
    pub(super) client: ClientHandle<MallocService>,
    /// Small-block frees of this shard's blocks, awaiting one batched
    /// post to it — kept as the [`FreePost::Batch`] it will be posted as,
    /// so a flush sends it from here without moving it.
    pub(super) free_buf: FreePost,
    /// Blocks currently stashed in magazines this shard refilled, plus
    /// the refill in flight on it at its requested count.
    stash: Stash,
    /// The refill published on this shard and not yet collected: the
    /// next refill of a class whose magazine ran dry. At most one, since
    /// the slot holds one request; its class's magazine stays empty
    /// until it is collected.
    in_flight: Option<AllocBatchReq>,
    /// Accumulated full-ring retries — the saturation signal that moves
    /// allocation traffic off the shard at
    /// [`NgmHandle::REBALANCE_PRESSURE`].
    pub(super) pressure: u32,
    /// The handle has observed this shard dead (failover already
    /// recorded and allocation traffic moved off).
    pub(super) failed: bool,
}

/// The blocks a handle holds in magazines one shard refilled, and what
/// of that count the shard's magazine gauge last heard.
#[derive(Default)]
struct Stash {
    held: i64,
    published: i64,
}

impl Stash {
    /// Folds what changed since the last publication into `gauge`'s
    /// magazine occupancy.
    fn publish(&mut self, gauge: &RuntimeStats) {
        let delta = self.held - self.published;
        if delta != 0 {
            self.published = self.held;
            gauge.add_magazine_occupancy(delta);
        }
    }
}

impl End {
    fn new(client: ClientHandle<MallocService>) -> Self {
        End {
            client,
            free_buf: FreePost::default(),
            stash: Stash::default(),
            in_flight: None,
            pressure: 0,
            failed: false,
        }
    }
}

impl NgmHandle {
    /// A handle on `tier`, registered with every slot, its size classes
    /// spread round-robin over the shards.
    pub(super) fn new(tier: Arc<Tier>) -> Self {
        let ends = tier.slots.iter().map(|slot| End::new(slot.register()));
        let n = tier.slots.len();
        NgmHandle {
            ends: ends.collect(),
            tier,
            magazines: [AddrBatch::empty(); NUM_CLASSES],
            mag_shard: [0u16; NUM_CLASSES],
            class_shard: std::array::from_fn(|c| (c % n) as u16),
        }
    }

    pub(super) fn nshards(&self) -> usize {
        self.ends.len()
    }

    /// `shard`'s runtime counters.
    pub(super) fn stats(&self, shard: usize) -> &RuntimeStats {
        &self.tier.slots[shard].handles.stats
    }

    /// The shard that owns `ptr`, read from its segment header — a pure
    /// function of the address, stable for the block's whole lifetime.
    fn shard_of_small(&self, ptr: NonNull<u8>) -> usize {
        if self.nshards() == 1 {
            return 0;
        }
        // SAFETY: callers only pass live small-class blocks allocated by
        // this tier's segregated heaps.
        let owner = unsafe { ngm_heap::owner_of_small_ptr(ptr) };
        let shard = owner.wrapping_sub(OWNER_BASE) as usize;
        debug_assert!(shard < self.nshards(), "foreign owner id {owner:#x}");
        if shard < self.nshards() {
            shard
        } else {
            0
        }
    }

    /// Pushes one event onto `shard`'s client trace ring, when tracing
    /// is on.
    fn trace(&self, shard: usize, kind: TraceEventKind, a: u64, b: u64) {
        if let Some(ring) = self.ends[shard].client.trace_ring() {
            ring.push(kind, a, b);
        }
    }

    /// Allocates a block.
    ///
    /// Small layouts are served from the per-class magazine (refilled in
    /// one round trip when empty); large layouts are mapped on the
    /// calling thread, whatever state the tier is in.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the service reports failure and
    /// the fallback heap cannot serve either (or the kernel refuses a
    /// large mapping) and [`AllocError::ZeroSize`] for zero-sized
    /// layouts.
    pub fn alloc(&mut self, layout: Layout) -> Result<NonNull<u8>, AllocError> {
        if layout.size() == 0 {
            return Err(AllocError::ZeroSize);
        }
        match layout_to_class(layout.size(), layout.align()) {
            Some(class) => self.alloc_from_magazine(class, layout),
            None => {
                let ptr = self.tier.large.allocate(layout)?;
                // Large blocks are traced on slot 0's client ring.
                self.trace(0, TraceEventKind::Alloc, layout.size() as u64, 0);
                Ok(ptr)
            }
        }
    }

    /// The small-block path: pop the class magazine, refilling first
    /// when empty.
    fn alloc_from_magazine(
        &mut self,
        class: SizeClass,
        layout: Layout,
    ) -> Result<NonNull<u8>, AllocError> {
        let ci = class.0 as usize;
        let size = layout.size() as u64;
        // The refill that tops an empty magazine up traces this pop
        // itself, before the store that releases its slot.
        let collected = self.magazines[ci].is_empty();
        if collected {
            if let Err(e) = self.top_up(class, size) {
                // No shard could refill (all deadlined, dead, or
                // empty): degrade this one allocation to the inline
                // fallback instead of failing it, keeping the app
                // alive through the outage.
                let shard = self.class_shard[ci] as usize;
                return self.fallback_alloc(layout, shard).map_err(|_| e);
            }
        }
        let addr = self.magazines[ci]
            .pop()
            .expect("magazine nonempty after refill");
        let source = self.mag_shard[ci] as usize;
        self.ends[source].stash.held -= 1;
        if !collected {
            self.trace(source, TraceEventKind::Alloc, size, 0);
        }
        if self.magazines[ci].is_empty() {
            self.send_ahead(class);
        }
        NonNull::new(addr as *mut u8).ok_or(AllocError::OutOfMemory)
    }

    /// The refill `class` asks for: `batch_size` blocks, but never more
    /// than one heap page holds (at least four — the class table ends at
    /// a quarter page), which bounds what a handle stashes per class at
    /// `PAGE_SIZE` bytes instead of `batch_size` × 16 KiB.
    fn refill_request(&self, class: SizeClass) -> AllocBatchReq {
        let per_page = (PAGE_SIZE / class_to_size(class)) as u32;
        AllocBatchReq {
            class,
            count: self.tier.batch_size.min(per_page),
        }
    }

    /// Publishes the next refill of `class`, whose magazine the last pop
    /// emptied, on its shard and returns at once: the next alloc of the
    /// class collects it, usually already answered. Only a refill of more
    /// than one block goes ahead, so `with_batch(1, 1)` stays the paper's
    /// one synchronous round trip per malloc. A refusal is routed like a
    /// failed refill, and the next alloc refills where routing points.
    #[inline(never)]
    fn send_ahead(&mut self, class: SizeClass) {
        let what = self.refill_request(class);
        if what.count == 1 {
            return;
        }
        let shard = self.class_shard[class.0 as usize] as usize;
        if let Err(cause) = self.publish(shard, what) {
            self.route(shard, cause, RouteOp::Refill);
        }
    }

    /// Tops up `class`'s empty magazine, routing around shards that
    /// cannot serve it: first by collecting the refill sent ahead when
    /// the magazine ran dry, if one is in flight, else by one round trip
    /// to the class's current shard. The refill that succeeds also traces
    /// the pop it is collected for, an alloc of `size` bytes. Kept out of
    /// line: it runs once per magazine, and inlined it would widen
    /// `alloc`'s pop path.
    #[inline(never)]
    fn top_up(&mut self, class: SizeClass, size: u64) -> Result<(), AllocError> {
        let ci = class.0 as usize;
        let what = self.refill_request(class);
        let ahead = self.mag_shard[ci] as usize;
        let mut collect = self.ends[ahead].in_flight.is_some_and(|w| w.class == class);
        for _ in 0..self.nshards() {
            let (shard, result) = if collect {
                (ahead, self.collect(ahead, Some(size)))
            } else {
                let shard = self.class_shard[ci] as usize;
                let trip = self
                    .publish(shard, what)
                    .and_then(|()| self.collect(shard, Some(size)));
                (shard, trip)
            };
            collect = false;
            let cause = match result {
                // An empty batch is the service reporting exhaustion.
                Ok(()) if self.magazines[ci].is_empty() => break,
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            if self.route(shard, cause, RouteOp::Refill).is_none() {
                break;
            }
        }
        Err(AllocError::OutOfMemory)
    }

    /// The degradation endpoint: every shard deadlined or died, so serve
    /// the small-class allocation inline from the shared
    /// [`FallbackHeap`]. `shard` is the last shard tried, implicated in
    /// the failure event.
    fn fallback_alloc(&mut self, layout: Layout, shard: usize) -> Result<NonNull<u8>, AllocError> {
        self.tier.record_failure(FailureReason::Fallback, shard);
        self.tier.fallback.allocate(layout)
    }

    /// Publishes a refill of `what.class`, whose magazine is empty, on
    /// `shard`. A refill of another class still in flight there is
    /// collected first, into its own still-empty magazine: the slot holds
    /// one request. The refill counts in the shard's stash at its
    /// requested size from here on.
    fn publish(&mut self, shard: usize, what: AllocBatchReq) -> Result<(), ServiceError> {
        if self.ends[shard].in_flight.is_some() {
            self.collect(shard, None)?;
        }
        // A round trip for exactly one block is a call: the call
        // histogram and its phase partition cover every single-block
        // round trip, the refill histogram only those that amortise.
        let kind = if what.count > 1 {
            CallKind::Batched
        } else {
            CallKind::Single
        };
        let ci = what.class.0 as usize;
        debug_assert!(
            self.magazines[ci].is_empty(),
            "only a dry magazine asks for a refill"
        );
        let end = &mut self.ends[shard];
        end.client.publish(what, kind)?;
        end.in_flight = Some(what);
        end.stash.held += i64::from(what.count);
        self.mag_shard[ci] = shard as u16;
        Ok(())
    }

    /// Collects the refill in flight on `shard`. The response is read
    /// where it lies: its addresses go into the class's empty magazine,
    /// the one copy this side makes, and an empty response is the
    /// service reporting failure. Everything this side records of it —
    /// the stash, the occupancy gauge, the trace events — is done while
    /// the slot is still held, so none of it waits behind the store that
    /// releases the slot: a refill collected for a pop (`alloc` carries
    /// its size) traces that pop's `Alloc` right after its own `Refill`.
    /// An error leaves the slot free (a deadline retracted the request)
    /// or the client poisoned (it was abandoned mid-serve), and the
    /// refill out of the stash.
    fn collect(&mut self, shard: usize, alloc: Option<u64>) -> Result<(), ServiceError> {
        let end = &mut self.ends[shard];
        let what = end.in_flight.take().expect("a refill in flight");
        let magazine = &mut self.magazines[what.class.0 as usize];
        let gauge = &self.tier.slots[shard].handles.stats;
        let stash = &mut end.stash;
        let trace = end.client.trace_ring().cloned();
        let got = end.client.try_collect(|batch: &mut AddrBatch| {
            magazine.copy_from(batch);
            stash.held += batch.len() as i64 - i64::from(what.count);
            if !batch.is_empty() {
                // Publish occupancy only here (and at drop) — pops since
                // the last refill fold into this one delta, keeping the
                // alloc fast path free of shared-memory traffic.
                stash.publish(gauge);
                if let Some(ring) = trace {
                    let class = u64::from(what.class.0);
                    ring.push(TraceEventKind::Refill, class, batch.len() as u64);
                    if let Some(size) = alloc {
                        ring.push(TraceEventKind::Alloc, size, 0);
                    }
                }
            }
        });
        if got.is_err() {
            end.stash.held -= i64::from(what.count);
        }
        got
    }

    /// Frees a block asynchronously; returns as soon as the message is in
    /// the owning shard's ring (§3.1.2: free is off the critical path).
    /// Small-block frees are buffered per owning shard and flushed as one
    /// batched post every `flush_threshold` frees; a large free is a
    /// synchronous `munmap` on the calling thread. A flush waits out a
    /// full ring for at most the deadline, then diverts to the owning
    /// shard's orphan stack, so a free is always accepted.
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`NgmHandle::alloc`] on the same [`crate::Ngm`]
    /// instance with the same `layout`, and must not be used afterwards.
    pub unsafe fn dealloc(&mut self, ptr: NonNull<u8>, layout: Layout) {
        if layout_to_class(layout.size(), layout.align()).is_none() {
            // SAFETY: forwarded contract — a live large block this tier's
            // ledger mapped for `layout`, relinquished by the caller.
            unsafe { self.tier.large.deallocate(ptr, layout) };
            self.trace(0, TraceEventKind::Free, layout.size() as u64, 0);
            return;
        }
        // The fallback gate comes before any shard shortcut (including
        // the single-shard one inside `shard_of_small`): once the tier
        // has ever degraded, any small block might be fallback-owned.
        // SAFETY (owner read): small blocks from this tier are segment-
        // backed, per this method's contract.
        if self.tier.fallback.is_active()
            && unsafe { ngm_heap::owner_of_small_ptr(ptr) } == FALLBACK_OWNER
        {
            // SAFETY: forwarded contract — a live fallback block the
            // caller relinquished.
            unsafe { self.tier.fallback.deallocate(ptr) };
            return;
        }
        let shard = self.shard_of_small(ptr);
        // Traced before the flush, whose record-header store is the last
        // write this free makes.
        self.trace(shard, TraceEventKind::Free, layout.size() as u64, 0);
        // A flush always empties the buffer, so it holds fewer than
        // `flush_threshold` (at most `MAX_BATCH`) frees on entry.
        let free_buf = self.ends[shard].free_buf.addrs_mut();
        free_buf.push(ptr.as_ptr() as usize);
        if free_buf.len() >= self.tier.flush_threshold as usize {
            self.flush_shard(shard);
        }
    }

    /// Posts all buffered frees (if any), each shard's buffer as one
    /// batched message to that shard. Called automatically when a buffer
    /// reaches `flush_threshold` and at handle drop; callers needing
    /// promptness bounds may flush manually.
    pub fn flush_frees(&mut self) {
        for shard in 0..self.nshards() {
            self.flush_shard(shard);
        }
    }

    /// Flushes one shard's buffered frees as a single post, sent from the
    /// buffer itself, and empties the buffer. Kept out of line for the
    /// same reason as [`NgmHandle::top_up`]: it runs once per buffer.
    #[inline(never)]
    fn flush_shard(&mut self, shard: usize) {
        if self.ends[shard].free_buf.addrs().is_empty() {
            return;
        }
        self.post_routed(shard, None);
        self.ends[shard].free_buf.addrs_mut().clear();
    }

    /// Posts to one shard — `unused` blocks going home from a magazine,
    /// or else the shard's own free buffer — feeding ring pressure into
    /// routing and never losing a free: on return the blocks
    /// are the tier's. A shard whose ring stayed full past the deadline
    /// has them diverted to its orphan stack (reclaimed on its next idle
    /// round, or at shutdown) so accounting stays exact; a dead shard's
    /// are written off and counted by the offload layer.
    fn post_routed(&mut self, shard: usize, unused: Option<&FreePost>) {
        let end = &mut self.ends[shard];
        let cause = match end.client.try_post(unused.unwrap_or(&end.free_buf)) {
            Ok(full_retries) => {
                self.note_pressure(shard, full_retries);
                return;
            }
            Err(cause) => cause,
        };
        self.route(shard, cause, RouteOp::Post);
        if cause != ServiceError::ServiceStopped {
            let msg = unused.unwrap_or(&self.ends[shard].free_buf);
            Self::orphan(&self.tier, shard, msg.addrs(), msg.is_unused());
        }
    }

    /// Diverts undeliverable frees to `shard`'s orphan stack; `unused`
    /// keeps a [`FreePost::MagazineReturn`]'s tag so
    /// [`crate::ServiceStats::app_allocs`] stays exact.
    fn orphan(tier: &Tier, shard: usize, addrs: &AddrBatch, unused: bool) {
        let orphans = &tier.slots[shard].orphans;
        for p in addrs
            .as_slice()
            .iter()
            .filter_map(|&a| NonNull::new(a as *mut u8))
        {
            // SAFETY: free posts and refill responses carry only live
            // small blocks of `shard`'s heap that nothing else refers to
            // any more.
            unsafe {
                if unused {
                    orphans.push_unused(p);
                } else {
                    orphans.push(p);
                }
            }
        }
    }

    /// Blocks currently stashed in `class`'s magazine.
    pub fn magazine_len(&self, class: SizeClass) -> usize {
        self.magazines[class.0 as usize].len()
    }

    /// Blocks currently stashed across all magazines, with each refill in
    /// flight counted at its requested size.
    pub fn magazine_occupancy(&self) -> usize {
        self.ends.iter().map(|e| e.stash.held).sum::<i64>() as usize
    }

    /// The addresses currently stashed in `class`'s magazine (test/
    /// diagnostic use).
    pub fn magazine_contents(&self, class: SizeClass) -> &[usize] {
        self.magazines[class.0 as usize].as_slice()
    }

    /// Small-block frees buffered client-side, not yet posted.
    pub fn buffered_frees(&self) -> usize {
        self.ends.iter().map(|e| e.free_buf.addrs().len()).sum()
    }
}

impl NgmHandle {
    /// Returns everything in flight to the services: a refill still in
    /// flight is collected into its magazine, buffered frees are flushed
    /// to their owning shards, and every address still stashed in
    /// a magazine goes back to the shard that *refilled* it via
    /// [`FreePost::MagazineReturn`] — not the class's current route, which
    /// a rebalance may have moved — so shutdown accounting stays exact
    /// per shard (`allocs == frees`) with batching on. What [`Drop`]
    /// does, and what the global hook does to an exiting thread's handle
    /// before parking it for the next thread: an emptied handle holds no
    /// block of any shard.
    pub(crate) fn empty(&mut self) {
        for shard in 0..self.nshards() {
            if self.ends[shard].in_flight.is_some() {
                if let Err(cause) = self.collect(shard, None) {
                    self.route(shard, cause, RouteOp::Refill);
                }
            }
        }
        self.flush_frees();
        for ci in 0..NUM_CLASSES {
            if !self.magazines[ci].is_empty() {
                let source = self.mag_shard[ci] as usize;
                let unused = FreePost::MagazineReturn(std::mem::take(&mut self.magazines[ci]));
                self.ends[source].stash.held -= unused.addrs().len() as i64;
                self.post_routed(source, Some(&unused));
            }
        }
        for (end, slot) in self.ends.iter_mut().zip(self.tier.slots.iter()) {
            end.stash.publish(&slot.handles.stats);
        }
    }
}

impl Drop for NgmHandle {
    fn drop(&mut self) {
        self.empty();
    }
}
