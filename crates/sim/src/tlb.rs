//! Data TLB model: set-associative (or fully associative) page-translation
//! caches with LRU replacement.

use crate::config::TlbConfig;

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: u64,
    last_use: u64,
    valid: bool,
}

const INVALID: Entry = Entry {
    vpn: 0,
    last_use: 0,
    valid: false,
};

/// A TLB holding virtual-page-number entries.
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<Vec<Entry>>,
    set_count: u64,
    clock: u64,
}

impl Tlb {
    /// Builds an empty TLB with the given geometry.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            sets: vec![vec![INVALID; cfg.ways as usize]; cfg.sets() as usize],
            set_count: u64::from(cfg.sets()),
            clock: 0,
        }
    }

    /// Translates the page containing `page_addr` (page base address),
    /// inserting the mapping on a miss. Returns `true` on a hit.
    pub fn access(&mut self, page_addr: u64) -> bool {
        self.clock += 1;
        let vpn = page_addr / crate::PAGE_SIZE;
        let set = (vpn % self.set_count) as usize;
        let entries = &mut self.sets[set];

        if let Some(e) = entries
            .iter_mut()
            .filter(|e| e.valid)
            .find(|e| e.vpn == vpn)
        {
            e.last_use = self.clock;
            return true;
        }

        let victim = match entries.iter().position(|e| !e.valid) {
            Some(i) => i,
            None => {
                let mut idx = 0;
                for i in 1..entries.len() {
                    if entries[i].last_use < entries[idx].last_use {
                        idx = i;
                    }
                }
                idx
            }
        };
        entries[victim] = Entry {
            vpn,
            last_use: self.clock,
            valid: true,
        };
        false
    }

    /// Returns `true` if the page translation is resident (no state change).
    pub fn probe(&self, page_addr: u64) -> bool {
        let vpn = page_addr / crate::PAGE_SIZE;
        let set = (vpn % self.set_count) as usize;
        self.sets[set].iter().any(|e| e.valid && e.vpn == vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn repeated_translation_hits() {
        let mut t = Tlb::new(TlbConfig::full(4));
        // 100 is on page 0 too: only the first translation misses.
        let hits = [0, 0, 100].map(|a| t.access(a));
        assert_eq!(hits, [false, true, true]);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut t = Tlb::new(TlbConfig::full(2));
        t.access(0);
        t.access(PAGE_SIZE);
        t.access(0); // refresh page 0
        t.access(2 * PAGE_SIZE); // evicts page 1
        assert!(t.probe(0));
        assert!(!t.probe(PAGE_SIZE));
        assert!(t.probe(2 * PAGE_SIZE));
    }

    #[test]
    fn set_associative_maps_by_vpn() {
        let mut t = Tlb::new(TlbConfig::set_assoc(4, 2)); // 2 sets
                                                          // Pages 0 and 2 map to set 0; pages 1 and 3 to set 1.
        t.access(0);
        t.access(2 * PAGE_SIZE);
        t.access(4 * PAGE_SIZE); // set 0 again -> evicts page 0
        assert!(!t.probe(0));
        assert!(t.probe(2 * PAGE_SIZE));
        // Set 1 untouched.
        t.access(PAGE_SIZE);
        assert!(t.probe(PAGE_SIZE));
    }

    #[test]
    fn miss_ratio_computed() {
        let mut t = Tlb::new(TlbConfig::full(8));
        let misses = (0..4).filter(|_| !t.access(0)).count();
        assert_eq!(misses, 1, "one miss in four lookups of one page");
    }
}
