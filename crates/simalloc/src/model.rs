//! The model interface and the catalogue of allocator families.

use ngm_sim::{Machine, MachineConfig};

/// A simulated allocator policy.
///
/// `malloc`/`free` must perform, on `machine`, the memory accesses and
/// instruction work the modelled allocator would perform, and return the
/// simulated address placement chose. The driver attributes subsequent
/// user traffic to that address.
pub trait AllocModel {
    /// Display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Serves an allocation of `size` bytes on behalf of `core`.
    fn malloc(&mut self, machine: &mut Machine, core: usize, size: u32) -> u64;

    /// Releases the block at `addr` (of `size` bytes) on behalf of `core`.
    fn free(&mut self, machine: &mut Machine, core: usize, addr: u64, size: u32);

    /// Bytes of metadata the model currently maintains (footprint
    /// reporting for the Fig. 2 discussion).
    fn meta_bytes(&self) -> u64 {
        0
    }

    /// Atomic operations the model has executed (cross-checks §3.1.3).
    fn atomics(&self) -> u64 {
        0
    }
}

/// The allocator families of Figure 1 / Table 1, plus NextGen-Malloc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Glibc's default allocator.
    PtMalloc2,
    /// Jason Evans' jemalloc.
    Jemalloc,
    /// Google's TCMalloc.
    TcMalloc,
    /// Microsoft's mimalloc.
    Mimalloc,
    /// The paper's offloaded allocator.
    Ngm,
}

impl ModelKind {
    /// All baseline models in the paper's table order.
    pub const BASELINES: [ModelKind; 4] = [
        ModelKind::PtMalloc2,
        ModelKind::Jemalloc,
        ModelKind::TcMalloc,
        ModelKind::Mimalloc,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::PtMalloc2 => "PTMalloc2",
            ModelKind::Jemalloc => "JeMalloc",
            ModelKind::TcMalloc => "TCMalloc",
            ModelKind::Mimalloc => "Mimalloc",
            ModelKind::Ngm => "NextGen-Malloc",
        }
    }

    /// Builds a fresh model instance.
    pub fn build(self, app_threads: usize) -> Box<dyn AllocModel> {
        match self {
            ModelKind::PtMalloc2 => Box::new(crate::ptmalloc::PtMalloc2Model::new()),
            ModelKind::Jemalloc => Box::new(crate::jemalloc::JemallocModel::new(app_threads)),
            ModelKind::TcMalloc => Box::new(crate::tcmalloc::TcMallocModel::new(app_threads)),
            ModelKind::Mimalloc => Box::new(crate::mimalloc::MimallocModel::new(app_threads)),
            ModelKind::Ngm => Box::new(crate::ngm::NgmModel::new(app_threads)),
        }
    }

    /// The machine an experiment should run this model on: `app_threads`
    /// application cores, plus a dedicated service core for NextGen-Malloc
    /// (see [`crate::ngm::NgmModel::machine`]).
    pub fn machine(self, app_threads: usize) -> MachineConfig {
        match self {
            ModelKind::Ngm => crate::ngm::NgmModel::machine(app_threads, 1),
            _ => MachineConfig::a72(app_threads),
        }
    }
}

/// Size classes shared by the slab-style models (TCMalloc, Mimalloc,
/// Jemalloc, NGM): the first 32 entries of `ngm-heap`'s table, so
/// simulated and real placement agree up to 8 KiB
/// (`crates/bench/tests/sim_matches_runtime.rs` checks the prefix entry
/// for entry). The heap's table has since grown one doubling, to 16 KiB;
/// this one is frozen where it was because the benchmark's `table3_sim`
/// baseline and CI's "bit-identical to the first baseline" step pin the
/// cycle counts it produces. Widening the model is a benchmark-refresh
/// change (ROADMAP items 1 and 4), not something a runtime change may
/// carry along.
pub const CLASS_SIZES: [u32; 32] = [
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896, 1024,
    1280, 1536, 1792, 2048, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192,
];

/// Requests above this many bytes — the last entry of [`CLASS_SIZES`],
/// frozen with it — take the large (direct-map) path in every model, so
/// large-object traffic is identical across allocators and cancels out
/// of comparisons.
pub const LARGE_CUTOFF: u64 = 8192;

/// Serves a large allocation: a dedicated simulated mapping plus the
/// modeled cost of the mmap round trip.
pub fn large_alloc(
    space: &mut crate::addr::AddressSpace,
    machine: &mut ngm_sim::Machine,
    core: usize,
    size: u32,
) -> u64 {
    machine.retire(core, 400); // syscall + page-table work
    space.reserve((u64::from(size) + 4095) & !4095, 4096)
}

/// Releases a large allocation (`munmap` cost; the address is never
/// reused, as with a real unmapped region).
pub fn large_free(machine: &mut ngm_sim::Machine, core: usize) {
    machine.retire(core, 250);
}

/// Maps a request size to `(class index, block size)`.
///
/// Sizes beyond the table go to the large path (returned as `None`).
pub fn size_class(size: u32) -> Option<(usize, u32)> {
    if size > *CLASS_SIZES.last().expect("non-empty table") {
        return None;
    }
    let idx = CLASS_SIZES
        .iter()
        .position(|&c| c >= size)
        .expect("covered by last class");
    Some((idx, CLASS_SIZES[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lookup_is_tight() {
        for size in 1..=8192u32 {
            let (idx, block) = size_class(size).unwrap();
            assert!(block >= size);
            if idx > 0 {
                assert!(CLASS_SIZES[idx - 1] < size);
            }
        }
        assert_eq!(size_class(8193), None);
    }

    #[test]
    fn kinds_build_and_name() {
        for kind in ModelKind::BASELINES {
            let m = kind.build(2);
            assert_eq!(m.name(), kind.label());
        }
        assert_eq!(ModelKind::Ngm.build(2).name(), "NextGen-Malloc");
    }

    #[test]
    fn ngm_machine_gets_extra_core() {
        assert_eq!(ModelKind::Ngm.machine(4).num_cores(), 5);
        assert_eq!(ModelKind::Mimalloc.machine(4).num_cores(), 4);
    }
}
