//! PTMalloc2 model: Glibc's default allocator.
//!
//! The design axes that matter for the paper's Table 1:
//!
//! * **Aggregated layout** — every chunk carries a boundary-tag header
//!   directly in front of the user data; free-list links live in the dead
//!   chunks. Allocator metadata therefore shares lines and pages with
//!   user data.
//! * **Best-fit with splitting and coalescing** over one contiguous-ish
//!   arena: different sizes interleave in memory and reuse lands wherever
//!   a hole fits, scattering consecutively-allocated objects across the
//!   arena — the locality/TLB penalty the modern allocators avoid.
//! * **One arena lock** — a lock/unlock atomic pair brackets every
//!   operation (§2.3's "software mutex locks ... critical performance
//!   bottleneck").

use std::collections::BTreeMap;

use ngm_sim::{Access, AccessClass, Machine};

use crate::addr::AddressSpace;
use crate::model::{large_alloc, large_free, AllocModel, LARGE_CUTOFF};

/// Chunk header size (size + flags + fd/bk space, as in dlmalloc).
const HEADER: u64 = 16;

/// Arena growth quantum (a `brk`/`mmap` extension).
const ARENA_GROW: u64 = 1024 * 1024;

/// Minimum leftover worth splitting off as a new free chunk.
const MIN_SPLIT: u64 = 48;

/// The Glibc-style allocator model.
pub struct PtMalloc2Model {
    space: AddressSpace,
    /// Lock word and bin-array region (the `malloc_state` of glibc).
    arena_state: u64,
    /// Free chunks by base address (for coalescing).
    by_addr: BTreeMap<u64, u64>,
    /// Free chunk bases by size, LIFO within a size (glibc's bins reuse
    /// the most recently freed chunk of a size first).
    by_size: BTreeMap<u64, Vec<u64>>,
    /// Current wilderness chunk: next carve position and region end.
    top: u64,
    top_end: u64,
    atomics: u64,
}

impl Default for PtMalloc2Model {
    fn default() -> Self {
        Self::new()
    }
}

impl PtMalloc2Model {
    /// Creates an empty arena.
    pub fn new() -> Self {
        let mut space = AddressSpace::default();
        let arena_state = space.reserve(4096, 4096);
        PtMalloc2Model {
            space,
            arena_state,
            by_addr: BTreeMap::new(),
            by_size: BTreeMap::new(),
            top: 0,
            top_end: 0,
            atomics: 0,
        }
    }

    fn lock(&mut self, machine: &mut Machine, core: usize) {
        machine.access(core, Access::atomic(self.arena_state, 8, AccessClass::Meta));
        self.atomics += 1;
    }

    fn unlock(&mut self, machine: &mut Machine, core: usize) {
        machine.access(core, Access::atomic(self.arena_state, 8, AccessClass::Meta));
        self.atomics += 1;
    }

    fn bin_addr(&self, csize: u64) -> u64 {
        // 128 bins, size-hashed, living in the malloc_state.
        self.arena_state + 64 + (csize / 16 % 128) * 8
    }

    fn insert_free(&mut self, base: u64, size: u64) {
        self.by_addr.insert(base, size);
        self.by_size.entry(size).or_default().push(base);
    }

    fn remove_free(&mut self, base: u64, size: u64) {
        self.by_addr.remove(&base);
        if let Some(list) = self.by_size.get_mut(&size) {
            // Coalescing usually removes a recently freed chunk; scan from
            // the back.
            if let Some(pos) = list.iter().rposition(|&b| b == base) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                self.by_size.remove(&size);
            }
        }
    }

    /// Rounds a request to a chunk size (user bytes + header, 16-aligned).
    fn chunk_size(size: u32) -> u64 {
        (u64::from(size) + HEADER + 15) & !15
    }
}

impl AllocModel for PtMalloc2Model {
    fn name(&self) -> &'static str {
        "PTMalloc2"
    }

    fn malloc(&mut self, machine: &mut Machine, core: usize, size: u32) -> u64 {
        if u64::from(size) > LARGE_CUTOFF {
            return large_alloc(&mut self.space, machine, core, size);
        }
        let need = Self::chunk_size(size);
        self.lock(machine, core);
        machine.retire(core, 60);

        // Best fit: smallest free chunk that satisfies the request.
        let found = self
            .by_size
            .range(need..)
            .next()
            .map(|(&s, list)| (s, *list.last().expect("non-empty size bin")));
        let base = if let Some((csize, base)) = found {
            // Bin walk: touch the bin head and the chunk's own links
            // (which live in the dead chunk — aggregated layout).
            machine.access(
                core,
                Access::load(self.bin_addr(csize), 8, AccessClass::Meta),
            );
            machine.access(core, Access::load(base, 16, AccessClass::Meta));
            machine.retire(core, 40);
            self.remove_free(base, csize);
            let rem = csize - need;
            if rem >= MIN_SPLIT {
                let rem_base = base + need;
                self.insert_free(rem_base, rem);
                // Writing the remainder's boundary tag touches arena
                // memory adjacent to live data.
                machine.access(core, Access::store(rem_base, 16, AccessClass::Meta));
                machine.access(
                    core,
                    Access::store(self.bin_addr(rem), 8, AccessClass::Meta),
                );
            }
            base
        } else {
            // Carve from the wilderness; extend the arena if needed.
            if self.top + need > self.top_end {
                if self.top_end > self.top {
                    // The old wilderness tail becomes an ordinary free
                    // chunk (if big enough to matter).
                    let tail = self.top_end - self.top;
                    if tail >= MIN_SPLIT {
                        self.insert_free(self.top, tail);
                        machine.access(core, Access::store(self.top, 16, AccessClass::Meta));
                    }
                }
                let grow = ARENA_GROW.max(need);
                self.top = self.space.reserve(grow, 4096);
                self.top_end = self.top + grow;
                machine.retire(core, 300); // the mmap/brk excursion
            }
            let base = self.top;
            self.top += need;
            base
        };

        // Write the allocated chunk's boundary tag: the header line is the
        // line user data begins on.
        machine.access(core, Access::store(base, 16, AccessClass::Meta));
        self.unlock(machine, core);
        base + HEADER
    }

    fn free(&mut self, machine: &mut Machine, core: usize, addr: u64, size: u32) {
        if u64::from(size) > LARGE_CUTOFF {
            large_free(machine, core);
            return;
        }
        let mut base = addr - HEADER;
        let mut csize = Self::chunk_size(size);
        self.lock(machine, core);
        machine.retire(core, 50);

        // Read our header, then probe both neighbours' tags — three
        // touches of arena memory interleaved with live user data.
        machine.access(core, Access::load(base, 16, AccessClass::Meta));
        machine.access(core, Access::load(base + csize, 8, AccessClass::Meta));
        if base > 0 {
            machine.access(core, Access::load(base - 8, 8, AccessClass::Meta));
        }

        // Coalesce with the following free chunk.
        if let Some(&next_size) = self.by_addr.get(&(base + csize)) {
            self.remove_free(base + csize, next_size);
            csize += next_size;
        }
        // Coalesce with the preceding free chunk.
        if let Some((&prev_base, &prev_size)) = self.by_addr.range(..base).next_back() {
            if prev_base + prev_size == base {
                self.remove_free(prev_base, prev_size);
                base = prev_base;
                csize += prev_size;
            }
        }
        self.insert_free(base, csize);
        // Updated boundary tag + bin insertion.
        machine.access(core, Access::store(base, 16, AccessClass::Meta));
        machine.access(
            core,
            Access::store(self.bin_addr(csize), 8, AccessClass::Meta),
        );
        self.unlock(machine, core);
    }

    fn meta_bytes(&self) -> u64 {
        // malloc_state plus one boundary tag per free chunk.
        4096 + self.by_addr.len() as u64 * HEADER
    }

    fn atomics(&self) -> u64 {
        self.atomics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngm_sim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::a72(1))
    }

    #[test]
    fn alloc_free_realloc_reuses_hole() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let p = a.malloc(&mut m, 0, 100);
        a.free(&mut m, 0, p, 100);
        let q = a.malloc(&mut m, 0, 100);
        assert_eq!(p, q, "best fit reuses the freed chunk");
    }

    #[test]
    fn neighbours_coalesce() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let p1 = a.malloc(&mut m, 0, 100);
        let p2 = a.malloc(&mut m, 0, 100);
        let p3 = a.malloc(&mut m, 0, 100);
        a.free(&mut m, 0, p1, 100);
        a.free(&mut m, 0, p3, 100);
        a.free(&mut m, 0, p2, 100);
        // p1..p3 merge into one hole, which a block three times the size
        // fits; no one of them alone would.
        assert!(PtMalloc2Model::chunk_size(300) > PtMalloc2Model::chunk_size(100));
        assert_eq!(a.malloc(&mut m, 0, 300), p1, "the merged hole is reused");
    }

    #[test]
    fn every_op_pays_two_atomics() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let p = a.malloc(&mut m, 0, 64);
        a.free(&mut m, 0, p, 64);
        assert_eq!(a.atomics(), 4);
        assert_eq!(m.core_counters(0).atomic_rmws, 4);
    }

    #[test]
    fn different_sizes_interleave_in_memory() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let small = a.malloc(&mut m, 0, 32);
        let big = a.malloc(&mut m, 0, 1000);
        let small2 = a.malloc(&mut m, 0, 32);
        // Sequential carving: the two small blocks straddle the big one —
        // the opposite of size-class placement.
        assert!(small < big && big < small2);
        assert_eq!(big - small, PtMalloc2Model::chunk_size(32));
    }

    #[test]
    fn splitting_leaves_remainder() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let p = a.malloc(&mut m, 0, 1024);
        a.free(&mut m, 0, p, 1024);
        let q = a.malloc(&mut m, 0, 100);
        assert_eq!(p, q, "front of the hole is reused");
        assert_eq!(
            a.malloc(&mut m, 0, 100),
            p + PtMalloc2Model::chunk_size(100),
            "the remainder stays free and serves the next request"
        );
    }

    #[test]
    fn large_requests_bypass_the_arena() {
        let mut m = machine();
        let mut a = PtMalloc2Model::new();
        let before = a.atomics();
        let p = a.malloc(&mut m, 0, 100_000);
        a.free(&mut m, 0, p, 100_000);
        assert_eq!(a.atomics(), before, "large path takes no arena lock");
    }
}
