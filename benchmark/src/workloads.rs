//! The four runtime workloads. Each knows how to set itself up from a
//! seed, run one paired round (one pass through `std::alloc::System`,
//! one through the program, same thread, same events), take the memory
//! reading at the trace's peak, run one traced pass, and close its books.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, fresh_heap, heap_usage, tier_heap_usage, tier_readback, tier_shutdown, HeapUsage, Ngm,
    NgmHandle, SubmissionQueue, SystemAlloc, Tier, TierEnd, TierFailures, TierReadback,
};
use crate::conns::{self, Conn};
use crate::replay::{replay, Pass, Table, Trace};
use crate::spans::{Off, Recorder};
use crate::sys::process_cpu_seconds;

/// One paired round.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds of the `System` pass.
    pub ref_wall: f64,
    /// Wall seconds of the program pass.
    pub prog_wall: f64,
    /// Process CPU seconds consumed during the program pass.
    pub prog_cpu: f64,
    /// Mallocs plus frees the program pass attempted.
    pub ops: u64,
    /// Of those, how many returned an error to the caller.
    pub errors: u64,
    /// Idle turns the completion executor took (`conns_completion` only).
    pub idle_turns: u64,
}

/// The memory reading at the trace's peak.
#[derive(Debug, Clone, Copy)]
pub struct MemAtPeak {
    /// Bytes the application had requested and not yet freed.
    pub requested: u64,
    /// The heap's view at that moment.
    pub usage: HeapUsage,
}

/// What a workload's input looked like, for the drift guard and the
/// `workloads.` metrics.
#[derive(Debug, Clone, Copy)]
pub struct InputFacts {
    /// Events one pass executes.
    pub events: u64,
    /// FNV-1a fingerprint of the generated input.
    pub fingerprint: u64,
    /// Seconds the generator took.
    pub gen_seconds: f64,
    /// Share of events that are allocator operations.
    pub alloc_op_share: f64,
}

/// Exact counts over one traced pass, from the tier's public counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounts {
    /// Synchronous requests the service served during the pass.
    pub calls: u64,
    /// Fire-and-forget messages it drained.
    pub posts: u64,
    /// Mallocs the application made.
    pub mallocs: u64,
    /// Frees the application made.
    pub frees: u64,
    /// Submissions made through the completion queue.
    pub submits: u64,
    /// Of those, refused with `WouldBlock`.
    pub wouldblocks: u64,
}

/// The closed books of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Finish {
    /// The tier's shutdown report (`None` for the inline heap).
    pub tier: Option<TierEnd>,
}

/// A runtime workload, set up and warm.
pub trait Workload {
    /// What was generated.
    fn input(&self) -> InputFacts;
    /// One paired round; `Err` names a failed correctness check.
    fn round(&mut self, ref_first: bool) -> Result<Sample, String>;
    /// Replays to the peak, reads memory, replays the rest. Untimed.
    fn mem_at_peak(&mut self) -> Result<MemAtPeak, String>;
    /// One program pass with every layer call stamped into `rec`.
    fn traced_pass(&mut self) -> Result<(Recorder, PassCounts), String>;
    /// The tier's histograms and counters (`None` for the inline heap).
    fn readback(&self) -> Option<TierReadback>;
    /// The tier's failure counters so far (zero for the inline heap).
    fn failures(&self) -> TierFailures;
    /// Shuts down and runs the end-of-run correctness checks.
    fn finish(self: Box<Self>) -> Result<Finish, String>;
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Runs `f` and returns its result with the process CPU seconds it cost.
fn with_cpu<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = process_cpu_seconds();
    let r = f();
    (r, process_cpu_seconds() - c0)
}

fn sample(reference: &Pass, program: &Pass, prog_cpu: f64) -> Result<Sample, String> {
    check(reference.failed() == 0, || {
        format!(
            "{} operations failed on std::alloc::System",
            reference.failed()
        )
    })?;
    check(reference.checksum == program.checksum, || {
        format!(
            "touch checksum diverged: System {:#x}, program {:#x}",
            reference.checksum, program.checksum
        )
    })?;
    Ok(Sample {
        ref_wall: reference.wall.as_secs_f64(),
        prog_wall: program.wall.as_secs_f64(),
        prog_cpu,
        ops: program.mallocs + program.frees,
        errors: program.failed(),
        idle_turns: 0,
    })
}

/// How long the idle service is given to run its deferred work (page
/// preparation after 64 idle rounds, empty-page release after 10,000)
/// before the memory reading, so the reading does not depend on where in
/// that cycle it lands.
const SETTLE: Duration = Duration::from_millis(40);

/// Waits until the service has applied `frees` frees in total, as seen
/// in the mirror it publishes on idle rounds.
fn wait_frees_applied(ngm: &Ngm, frees: u64) -> Result<(), String> {
    let start = Instant::now();
    while tier_heap_usage(ngm).total_frees != frees {
        check(start.elapsed() < Duration::from_secs(5), || {
            format!(
                "service applied {} frees, {frees} were posted",
                tier_heap_usage(ngm).total_frees
            )
        })?;
        std::thread::yield_now();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// xalanc_sync / xalanc_magazine
// ---------------------------------------------------------------------

/// The xalanc-like trace through the blocking front-end of a tier.
pub struct XalancNgm {
    trace: Trace,
    input: InputFacts,
    table: Table,
    ngm: Ngm,
    handle: NgmHandle,
    /// Mallocs and frees this handle has made since the tier started.
    app: (u64, u64),
}

impl XalancNgm {
    /// Generates the trace from `seed` and starts `tier`.
    pub fn setup(seed: u64, tier: Tier) -> Self {
        let t = Instant::now();
        let events = adapter::xalanc_small_events(seed);
        let gen_seconds = t.elapsed().as_secs_f64();
        let trace = Trace::new(events);
        let ngm = tier.build();
        XalancNgm {
            input: InputFacts {
                events: trace.events.len() as u64,
                fingerprint: trace.fingerprint,
                gen_seconds,
                alloc_op_share: trace.alloc_op_share(),
            },
            table: Table::for_trace(&trace),
            handle: ngm.handle(),
            ngm,
            trace,
            app: (0, 0),
        }
    }

    fn account(&mut self, p: &Pass) {
        self.app.0 += p.mallocs - p.failed_mallocs;
        self.app.1 += p.frees - p.failed_frees;
    }

    fn quiesce(&mut self) -> Result<(), String> {
        self.handle.flush_frees();
        wait_frees_applied(&self.ngm, self.app.1)
    }
}

impl Workload for XalancNgm {
    fn input(&self) -> InputFacts {
        self.input
    }

    fn round(&mut self, ref_first: bool) -> Result<Sample, String> {
        let ev = &self.trace.events;
        let mut reference = None;
        if ref_first {
            reference = Some(replay(&mut SystemAlloc, ev, &mut self.table, &mut Off));
        }
        let (program, cpu) = with_cpu(|| replay(&mut self.handle, ev, &mut self.table, &mut Off));
        let reference =
            reference.unwrap_or_else(|| replay(&mut SystemAlloc, ev, &mut self.table, &mut Off));
        self.account(&program);
        sample(&reference, &program, cpu)
    }

    fn mem_at_peak(&mut self) -> Result<MemAtPeak, String> {
        let peak = self.trace.peak_idx;
        let head = &self.trace.events[..peak];
        let a = replay(&mut self.handle, head, &mut self.table, &mut Off);
        self.account(&a);
        self.quiesce()?;
        std::thread::sleep(SETTLE);
        let usage = tier_heap_usage(&self.ngm);
        let tail = &self.trace.events[peak..];
        let b = replay(&mut self.handle, tail, &mut self.table, &mut Off);
        self.account(&b);
        Ok(MemAtPeak {
            requested: self.trace.peak_live_bytes,
            usage,
        })
    }

    fn traced_pass(&mut self) -> Result<(Recorder, PassCounts), String> {
        self.quiesce()?;
        let before = self.ngm.runtime_stats();
        let mut rec = Recorder::with_capacity(self.trace.events.len());
        rec.open_root("replay.pass");
        let p = replay(
            &mut self.handle,
            &self.trace.events,
            &mut self.table,
            &mut rec,
        );
        rec.close_root();
        self.account(&p);
        self.quiesce()?;
        let after = self.ngm.runtime_stats();
        Ok((
            rec,
            PassCounts {
                calls: after.calls_served - before.calls_served,
                posts: after.posts_served - before.posts_served,
                mallocs: p.mallocs,
                frees: p.frees,
                ..PassCounts::default()
            },
        ))
    }

    fn readback(&self) -> Option<TierReadback> {
        Some(tier_readback(&self.ngm))
    }

    fn failures(&self) -> TierFailures {
        TierFailures::of(&self.ngm)
    }

    fn finish(self: Box<Self>) -> Result<Finish, String> {
        let XalancNgm {
            table,
            ngm,
            handle,
            app,
            ..
        } = *self;
        check(table.live() == 0, || {
            format!("{} objects leaked by the replay", table.live())
        })?;
        drop(handle);
        finish_tier(ngm, app.0)
    }
}

/// Shuts the tier down and checks its books against the application's.
fn finish_tier(ngm: Ngm, app_mallocs: u64) -> Result<Finish, String> {
    let end = tier_shutdown(ngm);
    check(end.clean_and_balanced, || {
        "NgmShutdown::clean() && balanced() is false".into()
    })?;
    check(end.live_blocks == 0, || {
        format!(
            "{} blocks live in the service heaps at shutdown",
            end.live_blocks
        )
    })?;
    check(end.allocs - end.magazine_returned == app_mallocs, || {
        format!(
            "service handed out {} - {} returned, application received {app_mallocs}",
            end.allocs, end.magazine_returned
        )
    })?;
    Ok(Finish { tier: Some(end) })
}

// ---------------------------------------------------------------------
// churn_inline
// ---------------------------------------------------------------------

/// Random churn straight on a fresh `SegregatedHeap` per pass.
pub struct ChurnInline {
    trace: Trace,
    input: InputFacts,
    table: Table,
}

impl ChurnInline {
    /// Generates the trace from `seed`.
    pub fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let events = adapter::churn_events(seed);
        let gen_seconds = t.elapsed().as_secs_f64();
        let trace = Trace::new(events);
        ChurnInline {
            input: InputFacts {
                events: trace.events.len() as u64,
                fingerprint: trace.fingerprint,
                gen_seconds,
                alloc_op_share: trace.alloc_op_share(),
            },
            table: Table::for_trace(&trace),
            trace,
        }
    }

    fn check_empty(heap: &adapter::SegregatedHeap) -> Result<(), String> {
        let live = heap_usage(heap).live_blocks;
        check(live == 0, || {
            format!("heap.live_blocks == {live} after the pass")
        })
    }
}

impl Workload for ChurnInline {
    fn input(&self) -> InputFacts {
        self.input
    }

    fn round(&mut self, ref_first: bool) -> Result<Sample, String> {
        let ev = &self.trace.events;
        let mut reference = None;
        if ref_first {
            reference = Some(replay(&mut SystemAlloc, ev, &mut self.table, &mut Off));
        }
        // The fresh heap maps its segments inside the timed pass: a
        // program that starts and allocates pays that too.
        let mut heap = fresh_heap();
        let (program, cpu) = with_cpu(|| replay(&mut heap, ev, &mut self.table, &mut Off));
        Self::check_empty(&heap)?;
        drop(heap);
        let reference =
            reference.unwrap_or_else(|| replay(&mut SystemAlloc, ev, &mut self.table, &mut Off));
        sample(&reference, &program, cpu)
    }

    fn mem_at_peak(&mut self) -> Result<MemAtPeak, String> {
        let (head, tail) = self.trace.events.split_at(self.trace.peak_idx);
        let mut heap = fresh_heap();
        replay(&mut heap, head, &mut self.table, &mut Off);
        let usage = heap_usage(&heap);
        replay(&mut heap, tail, &mut self.table, &mut Off);
        Self::check_empty(&heap)?;
        Ok(MemAtPeak {
            requested: self.trace.peak_live_bytes,
            usage,
        })
    }

    fn traced_pass(&mut self) -> Result<(Recorder, PassCounts), String> {
        let mut heap = fresh_heap();
        let mut rec = Recorder::with_capacity(self.trace.events.len());
        rec.open_root("replay.pass");
        let p = replay(&mut heap, &self.trace.events, &mut self.table, &mut rec);
        rec.close_root();
        Self::check_empty(&heap)?;
        Ok((
            rec,
            PassCounts {
                mallocs: p.mallocs,
                frees: p.frees,
                ..PassCounts::default()
            },
        ))
    }

    fn readback(&self) -> Option<TierReadback> {
        None
    }

    fn failures(&self) -> TierFailures {
        TierFailures::default()
    }

    fn finish(self: Box<Self>) -> Result<Finish, String> {
        check(self.table.live() == 0, || {
            format!("{} objects leaked by the replay", self.table.live())
        })?;
        Ok(Finish { tier: None })
    }
}

// ---------------------------------------------------------------------
// conns_completion
// ---------------------------------------------------------------------

/// Connection tasks through the completion front-end.
pub struct ConnsCompletion {
    conns: Vec<Conn>,
    input: InputFacts,
    ngm: Ngm,
    sq: SubmissionQueue,
    app: (u64, u64),
}

impl ConnsCompletion {
    /// Generates the connections from `seed` and starts the tier.
    pub fn setup(seed: u64) -> Self {
        let t = Instant::now();
        let conns = conns::generate(seed);
        let gen_seconds = t.elapsed().as_secs_f64();
        let ngm = Tier::Completion.build();
        ConnsCompletion {
            input: InputFacts {
                events: (conns.len() * conns::EVENTS_PER_CONN * 3) as u64,
                fingerprint: conns::fingerprint(&conns),
                gen_seconds,
                // alloc, fill, free
                alloc_op_share: 2.0 / 3.0,
            },
            sq: SubmissionQueue::new(ngm.handle()),
            ngm,
            conns,
            app: (0, 0),
        }
    }

    fn ops_per_pass(&self) -> u64 {
        (self.conns.len() * conns::EVENTS_PER_CONN) as u64
    }

    /// One program pass; returns wall seconds and the tasks' tally.
    fn pass<T: crate::spans::Tracer + 'static>(
        &mut self,
        tr: &Rc<RefCell<T>>,
    ) -> Result<(f64, Rc<conns::Tally>), String> {
        let t = Instant::now();
        let tally = conns::pass_ngm(&self.sq, &self.conns, tr)?;
        let wall = t.elapsed().as_secs_f64();
        let in_flight = self.sq.in_flight();
        check(in_flight == 0, || {
            format!("sq.in_flight() == {in_flight} after the pass")
        })?;
        self.app.0 += self.ops_per_pass() - tally.failed_allocs.get();
        self.app.1 += self.ops_per_pass() - tally.failed_allocs.get() - tally.failed_frees.get();
        Ok((wall, tally))
    }

    fn quiesce(&mut self) -> Result<(), String> {
        self.sq.with_handle(NgmHandle::flush_frees);
        wait_frees_applied(&self.ngm, self.app.1)
    }
}

impl Workload for ConnsCompletion {
    fn input(&self) -> InputFacts {
        self.input
    }

    fn round(&mut self, ref_first: bool) -> Result<Sample, String> {
        let run_ref = |conns: &[Conn]| {
            let t = Instant::now();
            let tally = conns::pass_system(conns);
            (t.elapsed().as_secs_f64(), tally)
        };
        let mut reference = None;
        if ref_first {
            reference = Some(run_ref(&self.conns));
        }
        let off = Rc::new(RefCell::new(Off));
        let (program, cpu) = with_cpu(|| self.pass(&off));
        let (prog_wall, tally) = program?;
        let (ref_wall, ref_tally) = reference.unwrap_or_else(|| run_ref(&self.conns));
        check(ref_tally.failed() == 0, || {
            "operations failed on std::alloc::System".into()
        })?;
        check(ref_tally.checksum.get() == tally.checksum.get(), || {
            format!(
                "fill checksum diverged: System {:#x}, program {:#x}",
                ref_tally.checksum.get(),
                tally.checksum.get()
            )
        })?;
        Ok(Sample {
            ref_wall,
            prog_wall,
            prog_cpu: cpu,
            ops: 2 * self.ops_per_pass(),
            errors: tally.failed(),
            idle_turns: tally.idle_turns.get(),
        })
    }

    /// The peak of this load is every connection holding its buffer at
    /// once; the completion path has no such instant to stop at, so the
    /// reading takes the same blocks through the queue's own handle.
    fn mem_at_peak(&mut self) -> Result<MemAtPeak, String> {
        self.quiesce()?;
        let mut held = Vec::with_capacity(self.conns.len());
        let mut failed = 0;
        self.sq.with_handle(|h| {
            for c in &self.conns {
                let l = std::alloc::Layout::from_size_align(c.size, 8).expect("valid layout");
                match adapter::Alloc::alloc(h, l) {
                    Some(p) => held.push((p, l)),
                    None => failed += 1,
                }
            }
        });
        check(failed == 0, || {
            format!("{failed} allocations failed at the peak")
        })?;
        std::thread::sleep(SETTLE);
        let usage = tier_heap_usage(&self.ngm);
        self.app.0 += held.len() as u64;
        self.app.1 += held.len() as u64;
        self.sq.with_handle(|h| {
            for (p, l) in held.drain(..) {
                // SAFETY: allocated above from this handle, freed once.
                unsafe { adapter::Alloc::free(h, p, l) };
            }
        });
        Ok(MemAtPeak {
            requested: conns::live_bytes(&self.conns),
            usage,
        })
    }

    fn traced_pass(&mut self) -> Result<(Recorder, PassCounts), String> {
        self.quiesce()?;
        let before = self.ngm.runtime_stats();
        // Four spans per event, plus one per refused submission.
        let mut rec = Recorder::with_capacity(6 * self.ops_per_pass() as usize);
        rec.open_root("replay.pass");
        let rec = Rc::new(RefCell::new(rec));
        let (_, tally) = self.pass(&rec)?;
        let mut rec = Rc::into_inner(rec)
            .expect("every task has completed and dropped its tracer")
            .into_inner();
        rec.close_root();
        self.quiesce()?;
        let after = self.ngm.runtime_stats();
        Ok((
            rec,
            PassCounts {
                calls: after.calls_served - before.calls_served,
                posts: after.posts_served - before.posts_served,
                mallocs: self.ops_per_pass(),
                frees: self.ops_per_pass(),
                submits: tally.submits.get(),
                wouldblocks: tally.wouldblocks.get(),
            },
        ))
    }

    fn readback(&self) -> Option<TierReadback> {
        Some(tier_readback(&self.ngm))
    }

    fn failures(&self) -> TierFailures {
        TierFailures::of(&self.ngm)
    }

    fn finish(self: Box<Self>) -> Result<Finish, String> {
        let ConnsCompletion { ngm, sq, app, .. } = *self;
        let in_flight = sq.in_flight();
        check(in_flight == 0, || {
            format!("sq.in_flight() == {in_flight} at the end")
        })?;
        drop(sq);
        finish_tier(ngm, app.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reproduction of the completion-path stall (README.md, "A stall
    /// in the completion path"): seed 14 met one within 20,000 passes when
    /// nothing pumped the queue from outside. Every pass must complete;
    /// those that needed an idle turn are listed.
    ///
    /// `cargo test --release --offline --manifest-path benchmark/Cargo.toml -- --ignored --nocapture`
    #[test]
    #[ignore = "runs for about twenty minutes"]
    fn conns_passes_survive_the_completion_stall() {
        crate::sys::pin_client();
        let mut w = ConnsCompletion::setup(14);
        let off = Rc::new(RefCell::new(Off));
        for pass in 0..20_000 {
            let (wall, tally) = w.pass(&off).expect("the pass completes");
            let turns = tally.idle_turns.get();
            if turns > 0 {
                eprintln!("pass {pass}: {turns} idle turns, {:.1} ms", wall * 1e3);
            }
        }
        Box::new(w).finish().expect("the books close");
    }
}
