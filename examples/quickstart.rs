//! Quickstart: start NextGen-Malloc, give the allocator its own room, and
//! allocate from several threads.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::alloc::Layout;

use ngm_core::Ngm;

fn main() {
    // Start the runtime: spawns the service thread and (when the machine
    // has a spare core) pins it — the paper's "own room in the house".
    let ngm = Ngm::start();
    println!(
        "service thread started (machine has {} cores)",
        ngm_offload::available_cores()
    );

    // Each thread registers a handle; an allocation pops the handle's
    // magazine (one synchronous round trip to the service core refills
    // it), a free fills a buffer that is posted fire-and-forget.
    let mut join = Vec::new();
    for t in 0..4u8 {
        let mut handle = ngm.handle();
        join.push(std::thread::spawn(move || {
            let mut peak = 0usize;
            let mut live = Vec::new();
            for i in 0..10_000usize {
                let size = 16 + (i * 37 + t as usize * 101) % 2048;
                let layout = Layout::from_size_align(size, 8).expect("valid layout");
                let p = handle.alloc(layout).expect("allocation");
                // SAFETY: fresh block of at least `size` bytes.
                unsafe { std::ptr::write_bytes(p.as_ptr(), t, size) };
                live.push((p, layout));
                peak = peak.max(live.len());
                if i % 3 != 0 {
                    let (p, l) = live.swap_remove((i * 7) % live.len());
                    // SAFETY: block came from this allocator, freed once.
                    unsafe { handle.dealloc(p, l) };
                }
            }
            for (p, l) in live {
                // SAFETY: as above.
                unsafe { handle.dealloc(p, l) };
            }
            peak
        }));
    }
    for (t, j) in join.into_iter().enumerate() {
        println!("thread {t}: peak live blocks {}", j.join().expect("worker"));
    }

    let down = ngm.shutdown();
    println!("\n-- service statistics --");
    println!(
        "allocations served : {} ({} of them magazine stash returned unused)",
        down.service.allocs, down.service.magazine_returned
    );
    println!("service round trips: {}", down.runtime.calls_served);
    println!("frees applied      : {}", down.service.frees);
    println!("segments not empty : {}", down.heap.segments);
    println!("peak live bytes    : {}", down.heap.peak_live_bytes);
    println!("pinned core        : {:?}", down.runtime.pinned_core);
    println!("idle poll fraction : {:.3}", down.runtime.idle_fraction());
    assert_eq!(down.heap.live_blocks, 0, "no leaks");
    println!("\nall blocks returned; no leaks.");
}
