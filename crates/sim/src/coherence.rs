//! MESI-lite directory tracking which cores hold each cache line.
//!
//! The paper's §2.3 argument — inter-core metadata synchronization is what
//! makes multi-threaded UMAs expensive — is about exactly the transitions
//! modelled here: a store to a line another core holds must invalidate the
//! remote copy, and a load of a line another core has modified must snoop
//! it back, each costing cross-core hops.

use std::collections::HashMap;

/// What a directory lookup asks the machine to do before the local access
/// proceeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// Number of remote cores whose copies must be invalidated (writes) or
    /// snooped/downgraded (reads of modified data).
    pub remote_hops: u32,
    /// Remote copies that were dirty and must be transferred/written back.
    pub dirty_transfer: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of cores holding the line.
    holders: u64,
    /// Core that holds the line modified, if any.
    modified: Option<u8>,
}

/// Directory of line states across all cores.
#[derive(Debug, Default)]
pub struct Directory {
    lines: HashMap<u64, DirEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access by `core` to `line_addr` and returns the remote
    /// work it implies. `write` selects store/RFO semantics.
    ///
    /// The returned [`CoherenceAction`] also tells the machine which remote
    /// private caches to invalidate; the machine performs those
    /// invalidations (this directory only tracks ownership).
    pub fn access(&mut self, core: usize, line_addr: u64, write: bool) -> CoherenceAction {
        debug_assert!(core < 64, "directory supports up to 64 cores");
        let bit = 1u64 << core;
        let e = self.lines.entry(line_addr).or_default();
        let mut action = CoherenceAction::default();

        if write {
            let others = e.holders & !bit;
            action.remote_hops = others.count_ones();
            if let Some(owner) = e.modified {
                if owner as usize != core {
                    action.dirty_transfer = true;
                }
            }
            e.holders = bit;
            e.modified = Some(core as u8);
        } else {
            if let Some(owner) = e.modified {
                if owner as usize != core {
                    // Snoop the modified copy back; owner keeps a clean copy.
                    action.remote_hops = 1;
                    action.dirty_transfer = true;
                    e.modified = None;
                }
            }
            e.holders |= bit;
        }
        action
    }

    /// Returns the cores (other than `core`) currently holding `line_addr`.
    pub fn other_holders(&self, core: usize, line_addr: u64) -> impl Iterator<Item = usize> + '_ {
        let mask = self
            .lines
            .get(&line_addr)
            .map(|e| e.holders & !(1u64 << core))
            .unwrap_or(0);
        (0..64usize).filter(move |i| mask & (1u64 << i) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_reads_cost_nothing() {
        let mut d = Directory::new();
        assert_eq!(d.access(0, 0x40, false), CoherenceAction::default());
        assert_eq!(d.access(0, 0x40, false), CoherenceAction::default());
        assert_eq!(d.access(0, 0x40, true), CoherenceAction::default());
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.access(0, 0x40, false);
        d.access(1, 0x40, false);
        d.access(2, 0x40, false);
        let a = d.access(3, 0x40, true);
        assert_eq!(a.remote_hops, 3);
        assert!(!a.dirty_transfer);
        // After the write, only core 3 holds it.
        assert_eq!(d.other_holders(3, 0x40).count(), 0);
    }

    #[test]
    fn read_of_modified_line_snoops_owner() {
        let mut d = Directory::new();
        d.access(0, 0x40, true);
        let a = d.access(1, 0x40, false);
        assert_eq!(a.remote_hops, 1);
        assert!(a.dirty_transfer);
        // Second read is now free: line is shared-clean.
        let a2 = d.access(2, 0x40, false);
        assert_eq!(a2.remote_hops, 0);
    }

    #[test]
    fn write_after_remote_write_transfers_dirty() {
        let mut d = Directory::new();
        d.access(0, 0x40, true);
        let a = d.access(1, 0x40, true);
        assert_eq!(a.remote_hops, 1);
        assert!(a.dirty_transfer);
    }

    #[test]
    fn owner_rewrite_is_free() {
        let mut d = Directory::new();
        d.access(0, 0x40, true);
        let a = d.access(0, 0x40, true);
        assert_eq!(a, CoherenceAction::default());
    }
}
