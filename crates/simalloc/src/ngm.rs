//! NextGen-Malloc model: the offloaded allocator.
//!
//! All heap metadata lives in [`SlabHeap`]s with a *segregated* layout,
//! one per service shard, each touched **only by its service core**, so
//! its lines stay resident in that core's private cache and never pollute
//! the application cores (§3.1.2). Application cores pay only the
//! communication protocol:
//!
//! * `malloc` — §4.2's `malloc_start`/`malloc_done` handshake: the client
//!   writes the request into its slot and flips an atomic; the service
//!   flips the response atomic back. Four atomic operations per round
//!   trip, the count behind §4.1's 75-billion-cycle estimate. The client
//!   blocks for the service round trip (modelled as idle time). One round
//!   trip fetches `batch` addresses: 1 is the paper's protocol; above 1
//!   the client keeps a per-class stash of *addresses* (not blocks — the
//!   metadata stays on the service core) and the handshake is amortised
//!   over the batch, the "aggressive preallocation" §3.1.1 says MMT's
//!   offloaded allocator needed.
//! * `free` — a single store into the client's SPSC ring; the service
//!   drains it off the critical path. No atomics, no waiting.
//!
//! With several shards, allocations pick the shard serving the block's
//! size class (`class % shards`) and frees recompute the same pure
//! function from the block's size — so a free always lands on the shard
//! whose heap created the block, whichever application core issues it.
//! Each (client, shard) pair has its own request slot and free ring;
//! shards share nothing.

use ngm_sim::{Access, AccessClass, CacheConfig, CoreConfig, Machine, MachineConfig};

use crate::addr::AddressSpace;
use crate::model::{large_alloc, large_free, size_class, AllocModel, CLASS_SIZES};
use crate::slab::{MetaTraffic, SlabHeap};

/// Entries per client free ring (ring region = entries × 16 bytes).
const RING_ENTRIES: u64 = 4096;
/// Cache-line bytes: the unit slot regions are sized in.
const LINE: u64 = 64;

/// How the malloc handshake's cost is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Faithful micro-architecture accounting: every slot access goes
    /// through the coherence machinery; the client idles for the
    /// service's measured processing latency. Cross-core sync costs what
    /// the simulated machine says it costs.
    Detailed,
    /// The paper's §4.1 accounting: the entire round trip costs exactly
    /// four atomic operations at `CostModel::atomic_rmw` cycles, all
    /// other communication assumed overlapped with the client's spin
    /// wait. This is the cost model under which the paper projects its
    /// Table 3 win; comparing the two accountings is ablation D's point.
    PaperModel,
}

/// The NextGen-Malloc model, at any tier width and refill batch.
pub struct NgmModel {
    space: AddressSpace,
    /// One slab heap per service shard.
    heaps: Vec<SlabHeap>,
    /// Request/response slot per (client, shard) pair, indexed
    /// `client * shards + shard`.
    slot_base: Vec<u64>,
    /// Free-ring base and cursor per (client, shard) pair.
    ring_base: Vec<u64>,
    ring_pos: Vec<u64>,
    /// Addresses a handshake fetched and `malloc` has not handed out
    /// yet, per client and class.
    stash: Vec<Vec<Vec<u64>>>,
    /// Base of each client's stash-head lines (what its pops touch).
    /// Empty at batch 1: the paper's protocol keeps no client state.
    stash_base: Vec<u64>,
    app_threads: usize,
    batch: usize,
    protocol: Protocol,
    atomics: u64,
}

impl NgmModel {
    /// Atomic operations executed per handshake (§4.1 charges four).
    pub const ATOMICS_PER_MALLOC: u64 = 4;

    /// The paper's column: `threads` application cores, one service
    /// core, one handshake per malloc, detailed accounting.
    pub fn new(threads: usize) -> Self {
        Self::with_protocol(threads, Protocol::Detailed)
    }

    /// The paper's column under an explicit protocol accounting.
    pub fn with_protocol(threads: usize, protocol: Protocol) -> Self {
        Self::with_tier(threads, 1, 1, protocol)
    }

    /// Creates the model for `threads` application cores served by
    /// `shards` service cores, each round trip fetching `batch`
    /// addresses. Run it on [`NgmModel::machine`]`(threads, shards)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `batch` is zero.
    pub fn with_tier(threads: usize, shards: usize, batch: usize, protocol: Protocol) -> Self {
        assert!(shards > 0, "a service tier has at least one shard");
        assert!(batch > 0, "a round trip fetches at least one address");
        let mut space = AddressSpace::default();
        let pairs = threads * shards;
        let slot_base = (0..pairs)
            .map(|_| space.reserve(Self::slot_bytes(batch), 2 * LINE))
            .collect();
        let stash_base = (0..if batch > 1 { threads } else { 0 })
            .map(|_| space.reserve(4096, 4096))
            .collect();
        let ring_base = (0..pairs)
            .map(|_| space.reserve(RING_ENTRIES * 16, 4096))
            .collect();
        // The service heaps use 16 KiB spans: segregated metadata makes
        // small spans cheap, and denser placement is the point.
        let heaps = (0..shards)
            .map(|_| {
                SlabHeap::with_page_size(&mut space, MetaTraffic::IndexArray, usize::MAX, 16384)
            })
            .collect();
        NgmModel {
            space,
            heaps,
            slot_base,
            ring_base,
            ring_pos: vec![0; pairs],
            stash: vec![vec![Vec::new(); CLASS_SIZES.len()]; threads],
            stash_base,
            app_threads: threads,
            batch,
            protocol,
            atomics: 0,
        }
    }

    /// The machine a `threads` × `shards` model runs on: `threads` big
    /// application cores plus `shards` service cores at the highest core
    /// IDs. Each service core is pinned in its own cluster (as the
    /// paper's prototype does on the 16-core, 4-cluster AWS A1): it gets
    /// that cluster's 1 MiB L2 to itself and stays out of the
    /// application cluster's shared cache.
    pub fn machine(threads: usize, shards: usize) -> MachineConfig {
        let mut svc = CoreConfig::big();
        svc.l2 = CacheConfig::kib(1024, 16);
        MachineConfig::asymmetric_many(threads, shards, svc)
    }

    /// Bytes of one (client, shard) slot: the request line — flag,
    /// request payload, and the first response word, as in §4.2 — then
    /// whole lines for the other `batch - 1` response words. The tail is
    /// never empty: §4.1 accounting keeps its shadow word there.
    fn slot_bytes(batch: usize) -> u64 {
        let tail = (batch as u64 - 1) * 8;
        LINE + tail.div_ceil(LINE).max(1) * LINE
    }

    /// The shard serving `class` — a pure function shared by the alloc
    /// and free paths (the sim analog of the real runtime's owner-id
    /// routing: same class table, same heap, both directions).
    fn shard_of_class(&self, class: usize) -> usize {
        class % self.heaps.len()
    }

    fn service_core(&self, machine: &Machine, shard: usize) -> usize {
        debug_assert!(
            machine.num_cores() >= self.app_threads + self.heaps.len(),
            "machine too small: build it with NgmModel::machine"
        );
        machine.num_cores() - self.heaps.len() + shard
    }

    fn pair(&self, core: usize, shard: usize) -> usize {
        core * self.heaps.len() + shard
    }

    /// One §4.2 round trip: `core` asks the shard owning `class` for
    /// `batch` blocks and receives their addresses into its stash.
    fn handshake(&mut self, machine: &mut Machine, core: usize, class: usize) {
        let shard = self.shard_of_class(class);
        let svc = self.service_core(machine, shard);
        let slot = self.slot_base[self.pair(core, shard)];
        let n = self.batch as u64;
        // Where the response travels: the first word on the request
        // line, the rest on the lines behind it.
        let head = (slot + 8, 16u32);
        let tail = (n > 1).then_some((slot + LINE, (n as u32 - 1) * 8));
        let response = || std::iter::once(head).chain(tail);
        let svc_work = 16 + 6 * n;
        machine.retire(core, 10);
        self.atomics += Self::ATOMICS_PER_MALLOC;

        let mut svc_latency = match self.protocol {
            Protocol::Detailed => {
                // Client: publish request (payload and flag share the
                // slot's cache line), flip malloc_start. Service:
                // observe the flag.
                machine.access(core, Access::store(head.0, head.1, AccessClass::Meta));
                machine.access(core, Access::atomic(slot, 8, AccessClass::Meta));
                machine.access(svc, Access::atomic(slot, 8, AccessClass::Meta))
            }
            Protocol::PaperModel => {
                // §4.1: four atomics at the quoted per-RMW latency cover
                // the entire handshake; the service's heap work overlaps
                // the client's spin and is charged to the service core.
                // Counter bookkeeping without coherence side effects:
                // touch a client-private shadow line.
                machine.idle(core, 4 * machine.config().cost.atomic_rmw);
                machine.access(core, Access::atomic(slot + LINE, 8, AccessClass::Meta));
                0
            }
        };

        // Service: run the (atomic-free) segregated heap. Every heap
        // metadata line below is touched only by `svc`.
        machine.retire(svc, svc_work);
        svc_latency += svc_work / 2; // service compute at ipc 2
        let fetched = &mut self.stash[core][class];
        for _ in 0..n {
            fetched.push(self.heaps[shard].alloc(machine, svc, &mut self.space, class));
        }
        // Pops return addresses in the order the service placed them.
        fetched.reverse();

        match self.protocol {
            Protocol::Detailed => {
                // Service: publish the response, flip malloc_done.
                for (addr, len) in response() {
                    svc_latency += machine.access(svc, Access::store(addr, len, AccessClass::Meta));
                }
                svc_latency += machine.access(svc, Access::atomic(slot, 8, AccessClass::Meta));
                // Client: spin until malloc_done (overlaps the service
                // latency), then pull the response lines back.
                machine.idle(core, svc_latency);
                machine.access(core, Access::atomic(slot, 8, AccessClass::Meta));
                for (addr, len) in response() {
                    machine.access(core, Access::load(addr, len, AccessClass::Meta));
                }
            }
            Protocol::PaperModel => {
                machine.access(svc, Access::load(head.0, head.1, AccessClass::Meta));
            }
        }
    }
}

impl AllocModel for NgmModel {
    fn name(&self) -> &'static str {
        "NextGen-Malloc"
    }

    fn malloc(&mut self, machine: &mut Machine, core: usize, size: u32) -> u64 {
        let Some((class, _block)) = size_class(size) else {
            return large_alloc(&mut self.space, machine, core, size);
        };
        // What a pop touches: the class's stash head, a few TLS lines
        // that stay L1-resident. No page descriptors, no free lists, no
        // block-interior links.
        let stash_head = self
            .stash_base
            .get(core)
            .map(|base| base + class as u64 * 16);
        if let Some(head) = stash_head {
            machine.retire(core, 8);
            machine.access(core, Access::load(head, 8, AccessClass::Meta));
        }
        if self.stash[core][class].is_empty() {
            self.handshake(machine, core, class);
        }
        let addr = self.stash[core][class].pop().expect("refilled above");
        if let Some(head) = stash_head {
            machine.access(core, Access::store(head, 8, AccessClass::Meta));
        }
        addr
    }

    fn free(&mut self, machine: &mut Machine, core: usize, addr: u64, size: u32) {
        let Some((class, _block)) = size_class(size) else {
            large_free(machine, core);
            return;
        };
        // Same pure routing as malloc: the class decides the owning
        // shard, so the free drains into the heap that placed the block.
        let shard = self.shard_of_class(class);
        let svc = self.service_core(machine, shard);
        let pair = self.pair(core, shard);

        // Client: one store into the SPSC ring, then done — asynchronous,
        // off the critical path, no atomics.
        machine.retire(core, 8);
        let entry = self.ring_base[pair] + (self.ring_pos[pair] % RING_ENTRIES) * 16;
        self.ring_pos[pair] += 1;
        machine.access(core, Access::store(entry, 16, AccessClass::Meta));

        // Service (later, concurrently): pull the entry and free.
        machine.retire(svc, 15);
        machine.access(svc, Access::load(entry, 16, AccessClass::Meta));
        self.heaps[shard].free(machine, svc, addr);
    }

    fn meta_bytes(&self) -> u64 {
        let stashed: usize = self.stash.iter().flatten().map(Vec::len).sum();
        self.heaps.iter().map(SlabHeap::meta_bytes).sum::<u64>()
            + stashed as u64 * 8
            + self.slot_base.len() as u64 * Self::slot_bytes(self.batch)
            + self.ring_base.len() as u64 * RING_ENTRIES * 16
    }

    fn atomics(&self) -> u64 {
        self.atomics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(app: usize, shards: usize) -> Machine {
        Machine::new(NgmModel::machine(app, shards))
    }

    fn sharded(app: usize, shards: usize) -> NgmModel {
        NgmModel::with_tier(app, shards, 1, Protocol::Detailed)
    }

    fn batched(batch: usize) -> NgmModel {
        NgmModel::with_tier(1, 1, batch, Protocol::Detailed)
    }

    #[test]
    fn malloc_roundtrip_and_reuse() {
        let mut m = machine(1, 1);
        let mut a = NgmModel::new(1);
        let p = a.malloc(&mut m, 0, 64);
        a.free(&mut m, 0, p, 64);
        let q = a.malloc(&mut m, 0, 64);
        assert_eq!(p, q);
    }

    #[test]
    fn batched_roundtrip_reuses_blocks() {
        let mut m = machine(1, 1);
        let mut a = batched(4);
        let p = a.malloc(&mut m, 0, 128);
        a.free(&mut m, 0, p, 128);
        // The freed block goes back to the service and returns on the
        // next refill of that class.
        let again: Vec<u64> = (0..8).map(|_| a.malloc(&mut m, 0, 128)).collect();
        assert!(again.contains(&p));
    }

    #[test]
    fn four_atomics_per_handshake_zero_per_free() {
        let mut m = machine(1, 1);
        let mut a = NgmModel::new(1);
        let p = a.malloc(&mut m, 0, 64);
        assert_eq!(a.atomics(), NgmModel::ATOMICS_PER_MALLOC);
        a.free(&mut m, 0, p, 64);
        assert_eq!(a.atomics(), NgmModel::ATOMICS_PER_MALLOC);
        a.malloc(&mut m, 0, 64);
        assert_eq!(
            a.atomics(),
            2 * NgmModel::ATOMICS_PER_MALLOC,
            "batch 1 pays the full handshake per call"
        );
    }

    #[test]
    fn batch_amortizes_atomics() {
        let mut m = machine(1, 1);
        let mut a = batched(16);
        let addrs: Vec<u64> = (0..16).map(|_| a.malloc(&mut m, 0, 64)).collect();
        // One refill handshake for sixteen allocations.
        assert_eq!(a.atomics(), NgmModel::ATOMICS_PER_MALLOC);
        for p in addrs {
            a.free(&mut m, 0, p, 64);
        }
        assert_eq!(
            a.atomics(),
            NgmModel::ATOMICS_PER_MALLOC,
            "frees stay atomic-free"
        );
    }

    #[test]
    fn stashed_addresses_are_service_placed_and_dense() {
        let mut m = machine(1, 1);
        let mut a = batched(8);
        let p1 = a.malloc(&mut m, 0, 64);
        let p2 = a.malloc(&mut m, 0, 64);
        assert_eq!(p2, p1 + 64, "batch preserves sequential placement");
    }

    #[test]
    fn batched_client_is_cheaper_than_unbatched() {
        let client_cycles = |batch: usize| {
            let mut m = machine(1, 1);
            let mut a = batched(batch);
            for s in (0..512).map(|i| 16 + (i % 128) * 16) {
                let p = a.malloc(&mut m, 0, s);
                a.free(&mut m, 0, p, s);
            }
            m.core_counters(0).cycles
        };
        let (one, sixteen) = (client_cycles(1), client_cycles(16));
        assert!(
            sixteen < one,
            "batched client must be cheaper: {sixteen} vs {one}"
        );
    }

    #[test]
    fn slots_are_disjoint_at_every_batch() {
        // Slot size derives from batch: a refill's response words must
        // stay inside the requesting pair's slot. (A fixed 256-byte slot
        // put words 25.. of a refill on the next client's flag line.)
        for batch in [1usize, 2, 9, 24, 25, 32, 64, 128] {
            let a = NgmModel::with_tier(2, 2, batch, Protocol::Detailed);
            let bytes = NgmModel::slot_bytes(batch);
            assert!(bytes >= LINE + (batch as u64 - 1) * 8, "batch {batch}");
            let mut bases = a.slot_base.clone();
            bases.sort_unstable();
            for w in bases.windows(2) {
                assert!(
                    w[0] + bytes <= w[1],
                    "batch {batch}: slot at {:#x} runs into {:#x}",
                    w[0],
                    w[1]
                );
            }

            // And observably: a handshake leaves the client's flag line
            // exclusive in its own cache, and the other client's refill
            // must not take it away — in either direction.
            let mut m = machine(2, 1);
            let mut a = NgmModel::with_tier(2, 1, batch, Protocol::Detailed);
            for (victim, refiller, size) in [(1, 0, 64), (0, 1, 128)] {
                a.malloc(&mut m, victim, size);
                a.malloc(&mut m, refiller, size);
                let before = m.core_counters(victim);
                let flag = a.slot_base[a.pair(victim, 0)];
                m.access(victim, Access::atomic(flag, 8, AccessClass::Meta));
                let after = m.core_counters(victim);
                assert_eq!(
                    (after.coherence_events, after.l1d_store_misses),
                    (before.coherence_events, before.l1d_store_misses),
                    "batch {batch}: client {refiller}'s refill took client {victim}'s flag line"
                );
            }
        }
    }

    #[test]
    fn heap_metadata_stays_on_service_core() {
        let mut m = machine(2, 1);
        let mut a = NgmModel::new(2);
        for core in 0..2 {
            for i in 0..100u32 {
                let p = a.malloc(&mut m, core, 64 + i % 512);
                a.free(&mut m, core, p, 64 + i % 512);
            }
        }
        let svc = m.num_cores() - 1;
        // Application cores' metadata misses are confined to the
        // communication slots/rings; the slab descriptors and index
        // arrays are touched only by the service core. Check via the
        // attribution counters: the service core sees metadata misses,
        // and app cores see none on user data (they touched none here).
        let svc_meta = m.core_counters(svc).meta_llc_misses;
        let app_user: u64 = (0..2).map(|c| m.core_counters(c).user_llc_misses).sum();
        assert!(svc_meta > 0, "service core does the heap's metadata work");
        assert_eq!(app_user, 0);
    }

    #[test]
    fn free_blocks_nobody() {
        let mut m = machine(1, 1);
        let mut a = NgmModel::new(1);
        let p = a.malloc(&mut m, 0, 64);
        let before = m.core_counters(0).cycles;
        a.free(&mut m, 0, p, 64);
        let spent = m.core_counters(0).cycles - before;
        // The client-side cost of free is one ring store (worst case a
        // cold line plus a page walk) — far below a synchronous malloc
        // round trip with its four atomics.
        assert!(spent < 250, "async free cost {spent} too high");
    }

    #[test]
    fn frees_route_to_the_allocating_shard() {
        // Round-trip blocks of many classes: every free must reach the
        // shard that placed the block, or the reuse check fails (a heap
        // can only hand back addresses it owns).
        let mut m = machine(2, 4);
        let mut a = sharded(2, 4);
        let sizes = [16u32, 64, 100, 256, 1024, 4000];
        let blocks: Vec<(u64, u32)> = sizes.iter().map(|&s| (a.malloc(&mut m, 0, s), s)).collect();
        for &(addr, size) in &blocks {
            a.free(&mut m, 1, addr, size); // freed from the *other* core
        }
        for &(addr, size) in &blocks {
            let again = a.malloc(&mut m, 0, size);
            assert_eq!(
                again, addr,
                "size {size}: block not reused — free misrouted"
            );
        }
    }

    #[test]
    fn sharded_tier_spreads_service_work() {
        let mut m = machine(4, 4);
        let mut a = sharded(4, 4);
        for core in 0..4 {
            for i in 0..200u32 {
                // Sizes sweep several classes so each shard sees traffic.
                let size = 16 << (i % 5);
                let p = a.malloc(&mut m, core, size);
                a.free(&mut m, core, p, size);
            }
        }
        let n = m.num_cores();
        let busy = (n - 4..n)
            .filter(|&c| m.core_counters(c).instructions > 0)
            .count();
        assert!(busy >= 2, "only {busy} of 4 shards did any work");
    }

    #[test]
    fn sharding_divides_the_service_bottleneck() {
        // Service-bound regime: many clients, pure alloc/free churn. The
        // tier's whole point (§3.2 generalized): N shards split the one
        // saturated service core, so wall cycles drop.
        let run = |shards: usize| {
            let mut m = machine(8, shards);
            let mut a = sharded(8, shards);
            for core in 0..8 {
                for i in 0..300u32 {
                    let size = 16 << (i % 4);
                    let p = a.malloc(&mut m, core, size);
                    a.free(&mut m, core, p, size);
                }
            }
            m.wall_cycles()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < one as f64 / 1.5,
            "4 shards not ≥1.5x faster: 1-shard {one} vs 4-shard {four}"
        );
    }

    #[test]
    fn wall_clock_overlaps_service_work() {
        let mut m = machine(1, 1);
        let mut a = NgmModel::new(1);
        for _ in 0..1000 {
            let p = a.malloc(&mut m, 0, 128);
            a.free(&mut m, 0, p, 128);
        }
        let app = m.core_counters(0).cycles;
        let svc = m.core_counters(m.num_cores() - 1).cycles;
        assert_eq!(m.wall_cycles(), app.max(svc));
        // Frees execute concurrently: the service core is busier than the
        // idle-free client would suggest, yet wall time tracks the app.
        assert!(svc > 0);
    }
}
