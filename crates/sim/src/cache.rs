//! Set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;

/// Outcome of a cache lookup-and-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled; the field carries the
    /// evicted victim line (base address) if the victim was dirty.
    Miss {
        /// Base address of a dirty line written back, if any.
        dirty_victim: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    last_use: u64,
    dirty: bool,
    valid: bool,
}

const INVALID: Way = Way {
    tag: 0,
    last_use: 0,
    dirty: false,
    valid: false,
};

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Addresses are split as `| tag | set index | line offset |`; the line
/// offset width is fixed by [`crate::LINE_SIZE`].
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    clock: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        Cache {
            sets: vec![vec![INVALID; cfg.ways as usize]; sets],
            set_mask: cfg.sets() - 1,
            clock: 0,
        }
    }

    #[inline]
    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / crate::LINE_SIZE) & self.set_mask) as usize
    }

    #[inline]
    fn tag(&self, line_addr: u64) -> u64 {
        (line_addr / crate::LINE_SIZE) >> self.set_mask.count_ones()
    }

    /// Looks up `line_addr` (a line base address), filling it on a miss.
    ///
    /// `write` marks the line dirty on completion. Returns whether the
    /// lookup hit and, on a miss, any dirty victim that was written back.
    pub fn access(&mut self, line_addr: u64, write: bool) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        let set_bits = self.set_mask.count_ones();
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        let ways = &mut self.sets[set];

        if let Some(w) = ways.iter_mut().filter(|w| w.valid).find(|w| w.tag == tag) {
            w.last_use = clock;
            w.dirty |= write;
            return Lookup::Hit;
        }

        // Choose an invalid way first, otherwise the LRU way.
        let victim_idx = match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => {
                let mut idx = 0;
                for i in 1..ways.len() {
                    if ways[i].last_use < ways[idx].last_use {
                        idx = i;
                    }
                }
                idx
            }
        };
        let victim = ways[victim_idx];
        let dirty_victim = if victim.valid && victim.dirty {
            // Reconstruct the victim's base address from tag and set index.
            Some(((victim.tag << set_bits) | set as u64) * crate::LINE_SIZE)
        } else {
            None
        };
        ways[victim_idx] = Way {
            tag,
            last_use: clock,
            dirty: write,
            valid: true,
        };
        Lookup::Miss { dirty_victim }
    }

    /// Returns `true` if the line is currently resident (no state change).
    pub fn probe(&self, line_addr: u64) -> bool {
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates a line if present; returns `true` if it was dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == tag {
                let was_dirty = w.dirty;
                *w = INVALID;
                return was_dirty;
            }
        }
        false
    }

    /// Clears the dirty bit of a resident line (after a coherence
    /// writeback), leaving it valid.
    pub fn clean(&mut self, line_addr: u64) {
        let set = self.set_index(line_addr);
        let tag = self.tag(line_addr);
        for w in &mut self.sets[set] {
            if w.valid && w.tag == tag {
                w.dirty = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        let first = c.access(0x0, false);
        assert_eq!(first, Lookup::Miss { dirty_victim: None });
        assert_eq!(c.access(0x0, false), Lookup::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines whose line index is even (2 sets).
        c.access(0x000, false); // line 0, set 0
        c.access(0x080, false); // line 2, set 0
        c.access(0x000, false); // touch line 0 again
        c.access(0x100, false); // line 4, set 0 -> evicts line 2
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_victim_reports_writeback_address() {
        let mut c = tiny();
        let clean = Lookup::Miss { dirty_victim: None };
        assert_eq!(c.access(0x000, true), clean);
        assert_eq!(c.access(0x080, false), clean);
        // Third distinct line in set 0 evicts LRU = 0x000, which is dirty.
        match c.access(0x100, false) {
            Lookup::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(0x000)),
            Lookup::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x40, true);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut c = tiny();
        c.access(0x40, true);
        c.clean(0x40);
        // Invalidate now reports not-dirty.
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Sets 0, 1, 0, 1: every line is a cold miss and none evicts.
        let misses = [0x00, 0x40, 0x80, 0xc0]
            .into_iter()
            .filter(|&a| c.access(a, false) != Lookup::Hit)
            .count();
        assert_eq!(misses, 4);
        for a in [0x00, 0x40, 0x80, 0xc0] {
            assert_eq!(c.access(a, false), Lookup::Hit, "{a:#x} stayed resident");
        }
    }

    #[test]
    fn victim_address_reconstruction_roundtrips() {
        // 4 sets x 1 way.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 1,
        });
        let addr = 7 * 4 * 64 + 2 * 64; // tag 7, set 2
        c.access(addr, true);
        match c.access(addr + 4 * 64, false) {
            Lookup::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(addr)),
            Lookup::Hit => panic!("expected miss"),
        }
    }
}
