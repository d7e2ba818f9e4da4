//! Machine, cache, TLB, and cost-model configuration.

/// Geometry of one set-associative cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `ways * sets * LINE_SIZE`.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a configuration from a capacity in KiB and an associativity.
    ///
    /// # Panics
    ///
    /// Panics if the resulting number of sets is not a power of two or the
    /// capacity is not divisible by `ways * LINE_SIZE`.
    pub fn kib(size_kib: u64, ways: u32) -> Self {
        let cfg = CacheConfig {
            size_bytes: size_kib * 1024,
            ways,
        };
        assert!(cfg.sets().is_power_of_two(), "sets must be a power of two");
        cfg
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        assert!(
            self.size_bytes
                .is_multiple_of(u64::from(self.ways) * crate::LINE_SIZE),
            "capacity must divide evenly into ways * line size"
        );
        self.size_bytes / (u64::from(self.ways) * crate::LINE_SIZE)
    }
}

/// Geometry of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of page-translation entries.
    pub entries: u32,
    /// Associativity; `entries` for fully associative.
    pub ways: u32,
}

impl TlbConfig {
    /// A fully associative TLB with the given entry count.
    pub fn full(entries: u32) -> Self {
        TlbConfig {
            entries,
            ways: entries,
        }
    }

    /// A set-associative TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways` or sets is not a power
    /// of two.
    pub fn set_assoc(entries: u32, ways: u32) -> Self {
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide into ways"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        TlbConfig { entries, ways }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

/// The kind of core, per the paper's §3.2 "Type of Core to Offload to".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreType {
    /// A big out-of-order application core (the paper's "other rooms").
    BigOutOfOrder,
    /// A small single-threaded in-order integer core.
    LittleInOrder,
    /// A near-memory in-order core: lower DRAM latency, tiny caches.
    NearMemory,
}

/// Per-core configuration: pipeline throughput plus private cache geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Which kind of core this is.
    pub core_type: CoreType,
    /// Retired instructions per cycle for non-memory work.
    pub ipc: f64,
    /// Memory-level parallelism: how many outstanding misses the core
    /// overlaps. Observed stall cycles are `latency / mlp`. Out-of-order
    /// cores hide more miss latency than in-order ones.
    pub mlp: f64,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2 cache.
    pub l2: CacheConfig,
    /// First-level data TLB.
    pub dtlb: TlbConfig,
    /// Second-level (shared L2) TLB.
    pub stlb: TlbConfig,
    /// DRAM latency override in cycles; `None` uses the machine-wide value.
    ///
    /// Near-memory cores see a lower effective DRAM latency.
    pub dram_latency_override: Option<u64>,
    /// The core sits in its own cluster: its misses skip the shared LLC
    /// entirely (it neither pollutes nor benefits from it). On the
    /// paper's AWS A1, clusters of four A72 cores share an L2; pinning
    /// the service thread to another cluster gives it "its own room" at
    /// the cache level too.
    pub own_cluster: bool,
}

impl CoreConfig {
    /// A Cortex-A72-like big core (the paper prototypes on an AWS A1 with
    /// 16 Armv8-A Cortex-A72 cores).
    pub fn big() -> Self {
        CoreConfig {
            core_type: CoreType::BigOutOfOrder,
            ipc: 2.0,
            mlp: 4.0,
            l1d: CacheConfig::kib(32, 8),
            l2: CacheConfig::kib(256, 8),
            // Cortex-A72: 32-entry L1 dTLB, 512-entry unified L2 TLB.
            dtlb: TlbConfig::full(32),
            stlb: TlbConfig::set_assoc(512, 4),
            dram_latency_override: None,
            own_cluster: false,
        }
    }

    /// A small in-order integer core (§3.2: "a single-threaded in-order
    /// integer CPU may be adequate").
    pub fn little() -> Self {
        CoreConfig {
            core_type: CoreType::LittleInOrder,
            ipc: 1.0,
            mlp: 1.5,
            l1d: CacheConfig::kib(16, 4),
            l2: CacheConfig::kib(64, 4),
            dtlb: TlbConfig::full(32),
            stlb: TlbConfig::set_assoc(256, 4),
            dram_latency_override: None,
            own_cluster: false,
        }
    }

    /// A near-memory core with a micro-cache and reduced DRAM latency
    /// (§3.2: "the near-memory core will likely have lower memory access
    /// latencies; thus requiring only a small (micro) cache").
    pub fn near_memory() -> Self {
        CoreConfig {
            core_type: CoreType::NearMemory,
            ipc: 1.0,
            mlp: 1.0,
            l1d: CacheConfig::kib(8, 4),
            l2: CacheConfig::kib(16, 4),
            dtlb: TlbConfig::full(16),
            stlb: TlbConfig::set_assoc(64, 4),
            dram_latency_override: Some(60),
            own_cluster: true,
        }
    }
}

/// Latency constants, in cycles.
///
/// The atomic-RMW figure of 67 cycles and the contended worst case of ~700
/// cycles come from the paper's §3.1.1 (citing Rajaram et al. and
/// Asgharzadeh et al.); the 214-cycle average LLC/TLB miss penalty is the
/// §4.1 estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// L1 data-cache hit latency.
    pub l1_hit: u64,
    /// L2 hit latency.
    pub l2_hit: u64,
    /// Shared-LLC hit latency.
    pub llc_hit: u64,
    /// DRAM access latency.
    pub dram: u64,
    /// Additional latency of one atomic read-modify-write, uncontended.
    pub atomic_rmw: u64,
    /// Additional latency per remote core that must be invalidated or
    /// snooped for a coherence transition.
    pub coherence_hop: u64,
    /// STLB hit latency (added on a dTLB miss that hits the STLB).
    pub stlb_hit: u64,
    /// Page-table-walk latency (added on an STLB miss). The paper notes TLB
    /// misses "can incur 100s of cycles in modern processors".
    pub page_walk: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            l1_hit: 4,
            l2_hit: 12,
            llc_hit: 40,
            dram: 260,
            atomic_rmw: 67,
            coherence_hop: 45,
            stlb_hit: 8,
            page_walk: 250,
        }
    }
}

/// Full machine configuration: one entry in `cores` per simulated core, a
/// shared LLC, and the latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Per-core configurations. Core IDs index into this vector.
    pub cores: Vec<CoreConfig>,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Latency constants.
    pub cost: CostModel,
}

impl MachineConfig {
    /// An AWS-A1-like machine: `n` Cortex-A72-class cores sharing a 2 MiB
    /// cluster cache as LLC (the paper's prototype platform, §4.2;
    /// Graviton1 clusters share 2 MiB of L2-as-LLC).
    pub fn a72(n: usize) -> Self {
        MachineConfig {
            cores: vec![CoreConfig::big(); n],
            llc: CacheConfig::kib(2 * 1024, 16),
            cost: CostModel::default(),
        }
    }

    /// An asymmetric machine: `n` big application cores plus one service
    /// core of the given type (the paper's §3.2 design space). The
    /// service core always sits in its own cluster.
    pub fn asymmetric(n_big: usize, service: CoreConfig) -> Self {
        let mut cores = vec![CoreConfig::big(); n_big];
        let mut service = service;
        service.own_cluster = true;
        cores.push(service);
        MachineConfig {
            cores,
            llc: CacheConfig::kib(2 * 1024, 16),
            cost: CostModel::default(),
        }
    }

    /// An asymmetric machine with a *tier* of service cores: `n_big`
    /// application cores plus `n_service` copies of the given service
    /// core, each in its own cluster (the sharded generalization of
    /// [`MachineConfig::asymmetric`] — service cores occupy the highest
    /// core IDs).
    pub fn asymmetric_many(n_big: usize, n_service: usize, service: CoreConfig) -> Self {
        let mut cores = vec![CoreConfig::big(); n_big];
        let mut service = service;
        service.own_cluster = true;
        cores.extend(std::iter::repeat_n(service, n_service));
        MachineConfig {
            cores,
            llc: CacheConfig::kib(2 * 1024, 16),
            cost: CostModel::default(),
        }
    }

    /// Number of cores in the machine.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sets_power_of_two() {
        let c = CacheConfig::kib(32, 8);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_rejects_non_pow2_sets() {
        let _ = CacheConfig::kib(24, 8);
    }

    #[test]
    fn tlb_full_assoc_has_one_set() {
        let t = TlbConfig::full(64);
        assert_eq!(t.sets(), 1);
    }

    #[test]
    fn tlb_set_assoc_geometry() {
        let t = TlbConfig::set_assoc(1024, 4);
        assert_eq!(t.sets(), 256);
    }

    #[test]
    fn a72_machine_has_requested_cores() {
        let m = MachineConfig::a72(16);
        assert_eq!(m.num_cores(), 16);
        assert_eq!(m.cores[0].core_type, CoreType::BigOutOfOrder);
    }

    #[test]
    fn asymmetric_appends_service_core() {
        let m = MachineConfig::asymmetric(4, CoreConfig::near_memory());
        assert_eq!(m.num_cores(), 5);
        assert_eq!(m.cores[4].core_type, CoreType::NearMemory);
        assert!(m.cores[4].dram_latency_override.is_some());
    }

    #[test]
    fn asymmetric_many_appends_a_service_tier() {
        let m = MachineConfig::asymmetric_many(4, 3, CoreConfig::big());
        assert_eq!(m.num_cores(), 7);
        for s in 4..7 {
            assert!(m.cores[s].own_cluster, "service cores get their own room");
        }
        assert!(!m.cores[0].own_cluster);
        // One service core degenerates to the classic asymmetric shape.
        assert_eq!(
            MachineConfig::asymmetric_many(2, 1, CoreConfig::near_memory()),
            MachineConfig::asymmetric(2, CoreConfig::near_memory())
        );
    }

    #[test]
    fn default_costs_match_paper_constants() {
        let c = CostModel::default();
        // §3.1.1: one atomic RMW averages 67 cycles on Sandy Bridge.
        assert_eq!(c.atomic_rmw, 67);
        // §2.2: TLB misses incur 100s of cycles.
        assert!(c.page_walk >= 100);
    }
}
