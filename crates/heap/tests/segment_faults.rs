//! Who pays for a segment, as a number: a heap that fills one whole
//! segment takes a handful of page faults where 4 KiB paging takes one per
//! OS page, and is exactly as usable when the kernel refuses the advice;
//! and a segment is one huge page, resident whole from the heap's first
//! allocation on.
//!
//! This file is its own process, because the fault test's second half
//! turns huge pages off for the whole process (`PR_SET_THP_DISABLE`):
//! both tests hold [`THP`], and the fault test turns them back on before
//! it lets go.

use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::{Mutex, MutexGuard, PoisonError};

use ngm_heap::segment::{PAGE_SIZE, SEGMENT_SIZE, USABLE_PAGES};
use ngm_heap::sys::{os_page_size, thp_available, thread_minor_faults};
use ngm_heap::{Heap, SegregatedHeap};

const BLOCK: usize = 1024;
const BLOCKS: usize = USABLE_PAGES * PAGE_SIZE / BLOCK;

/// Held by each test for its whole run; see the module docs.
static THP: Mutex<()> = Mutex::new(());

fn hold_thp() -> MutexGuard<'static, ()> {
    THP.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns transparent huge pages off (`true`) or back on (`false`) for
/// this whole process.
fn set_thp_disabled(off: bool) {
    let flag = usize::from(off);
    // SAFETY: PR_SET_THP_DISABLE takes a flag and three zero arguments.
    let rc = unsafe { libc::prctl(libc::PR_SET_THP_DISABLE, flag, 0usize, 0usize, 0usize) };
    assert_eq!(rc, 0, "prctl(PR_SET_THP_DISABLE): errno {}", libc::errno());
}

/// Fills exactly one segment of a fresh heap with written blocks, checks
/// it, empties it; returns the minor faults the fill took on this thread.
/// `blocks` has its capacity already, and written once, so the harness
/// takes none of its own the second time round.
fn fill_one_segment(blocks: &mut Vec<NonNull<u8>>) -> u64 {
    let l = Layout::from_size_align(BLOCK, 8).expect("valid layout");
    let mut heap = SegregatedHeap::new(1);
    let before = thread_minor_faults();
    for i in 0..BLOCKS {
        let p = heap.allocate(l).expect("segment block");
        // SAFETY: a live block of BLOCK bytes.
        unsafe { p.as_ptr().write_bytes(i as u8, BLOCK) };
        blocks.push(p);
    }
    let taken = thread_minor_faults() - before;

    assert_eq!(heap.stats().segments, 1, "the fill is one segment exactly");
    for (i, p) in blocks.iter().enumerate() {
        // SAFETY: live blocks, written above.
        unsafe {
            assert_eq!(*p.as_ptr(), i as u8);
            assert_eq!(*p.as_ptr().add(BLOCK - 1), i as u8);
        }
    }
    let spill = heap.allocate(l).expect("next segment");
    assert_eq!(heap.stats().segments, 2, "one block more is a second one");
    // SAFETY: every block came from `heap` with `l` and is freed once.
    unsafe {
        heap.deallocate(spill, l);
        for p in blocks.drain(..) {
            heap.deallocate(p, l);
        }
    }
    heap.release_empty();
    assert!(heap.is_quiescent());
    assert_eq!(heap.stats().segments, 0);
    taken
}

#[test]
fn a_filled_segment_costs_a_handful_of_faults_and_works_without_the_advice() {
    let _thp = hold_thp();
    let mut blocks = Vec::with_capacity(BLOCKS);
    let os_pages = (USABLE_PAGES * PAGE_SIZE / os_page_size()) as u64;

    fill_one_segment(&mut blocks); // faults in `blocks` itself
    let advised = fill_one_segment(&mut blocks);
    println!("advised segment: {advised} minor faults for {os_pages} OS pages of blocks");
    if thp_available() {
        // One huge page; the slack is for a kernel that could not find a
        // free huge page for it and fell back.
        assert!(
            advised <= 64,
            "{advised} faults: segments are not on huge pages"
        );
    } else {
        println!("transparent huge pages are off on this host: bound skipped");
    }

    set_thp_disabled(true);
    let refused = fill_one_segment(&mut blocks);
    set_thp_disabled(false);
    println!("advice refused: {refused} minor faults");
    assert!(
        refused >= os_pages,
        "{refused} < {os_pages}: huge pages still on"
    );
}

#[test]
fn the_first_allocation_makes_the_whole_segment_resident() {
    let _thp = hold_thp();
    if !thp_available() {
        println!("transparent huge pages are off on this host: residency not checked");
        return;
    }
    let l = Layout::from_size_align(64, 8).expect("valid layout");
    let mut heap = SegregatedHeap::new(1);
    let p = heap.allocate(l).expect("first block");
    let base = p.as_ptr() as usize & !(SEGMENT_SIZE - 1);
    let mut resident = vec![0u8; SEGMENT_SIZE / os_page_size()];
    // SAFETY: `[base, base + SEGMENT_SIZE)` is the live segment holding
    // `p`, and `resident` has one byte per OS page of it.
    let rc = unsafe { libc::mincore(base as *mut _, SEGMENT_SIZE, resident.as_mut_ptr()) };
    assert_eq!(rc, 0, "mincore: errno {}", libc::errno());
    let absent = resident.iter().filter(|&&b| b & 1 == 0).count();
    println!(
        "{} of {} OS pages resident",
        resident.len() - absent,
        resident.len()
    );
    assert_eq!(absent, 0, "the segment is not one huge page faulted whole");
    // SAFETY: `p` came from `heap` with `l` and is freed once.
    unsafe { heap.deallocate(p, l) };
}
