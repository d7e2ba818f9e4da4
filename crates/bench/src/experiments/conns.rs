//! Connection-server experiment: the completion-based front-end under
//! many-connection multiplexing.
//!
//! A simulated connection server is the workload the non-blocking API
//! was redesigned for: one client core multiplexes thousands of
//! connections, each event allocating a small buffer, touching it, and
//! freeing it. The blocking front-end stalls the *whole core* on every
//! magazine refill round trip; the completion front-end submits the
//! refill and keeps serving other connections, so the round trip
//! overlaps with useful work and only `WouldBlock` bookkeeping remains
//! on the critical path.
//!
//! Each client thread drives [`CONNECTIONS`] connection tasks through a
//! [`ngm_core::SubmissionQueue`] on the dependency-free
//! [`MiniExecutor`] — real futures, each pending one re-polled at the
//! handle's wait pace on its own wake; the service threads wake nobody.
//! The blocking baseline runs the identical event stream through
//! `alloc`/`dealloc` on the same tier shape. The [`CompletionModel`]
//! column predicts the speedup from cycle costs, so a live ratio far
//! below it flags a broken overlap (pump starvation, a client starving
//! the unpinned service threads of their cores) rather than a slow
//! machine.

use std::alloc::Layout;
use std::sync::Arc;

use ngm_core::{Ngm, NgmConfig, NgmError, SubmissionQueue};
use ngm_simalloc::CompletionModel;

use crate::executor::MiniExecutor;
use crate::live;
use crate::Scale;

/// Simulated connections per client core (the experiment's headline
/// floor: the non-blocking front-end must sustain at least this many).
pub const CONNECTIONS: usize = 10_000;
/// Client threads (equal for both front-ends).
pub const CLIENTS: usize = 1;
/// Service shards backing the tier. One request slot is one in-flight
/// refill, so shards are completion-pipeline lanes: the non-blocking
/// front-end keeps all of them busy at once, while the blocking client
/// — serialized on each round trip — cannot.
pub const SHARDS: usize = 2;
/// Magazine batch / flush threshold, both front-ends.
pub const BATCH: usize = 2;

/// The sizes connections cycle through — eight consecutive small
/// classes, so refills for one class overlap with pops from others.
fn conn_layout(conn: usize) -> Layout {
    Layout::from_size_align(16 * (1 + conn % 8), 8).expect("valid layout")
}

/// The application side of one connection event: fill the reply buffer
/// and checksum it, as a request parser/serializer would. Identical for
/// both front-ends; this is the work the completion front-end overlaps
/// with refill round trips.
///
/// # Safety
///
/// `ptr` must be valid for writes and reads of `len` bytes.
unsafe fn event_work(ptr: std::ptr::NonNull<u8>, len: usize, seed: usize) {
    // SAFETY: caller provides a live block of `len` bytes.
    unsafe { std::ptr::write_bytes(ptr.as_ptr(), seed as u8, len) };
    let mut sum = seed as u64;
    for i in 0..len {
        // SAFETY: i < len.
        sum = sum
            .rotate_left(7)
            .wrapping_add(unsafe { ptr.as_ptr().add(i).read() } as u64);
    }
    std::hint::black_box(sum);
}

/// One connection: `events` rounds of alloc → touch → free through the
/// submission queue. The task only yields when it genuinely cannot
/// progress — its class's magazine is dry with the refill in flight
/// (the future stays pending and re-polls), or the queue is at its
/// in-flight ceiling (parks on [`SubmissionQueue::ready`]). An event
/// whose class has stock runs straight through, exactly like the
/// blocking fast path.
async fn connection(sq: SubmissionQueue, conn: usize, events: usize) {
    let l = conn_layout(conn);
    for _ in 0..events {
        let ptr = loop {
            match sq.alloc(l) {
                Ok(fut) => match fut.await {
                    Ok(p) => break p,
                    Err(e) => panic!("allocation failed: {e}"),
                },
                Err(NgmError::WouldBlock) => sq.ready().await,
                Err(e) => panic!("submission failed: {e}"),
            }
        };
        // SAFETY: fresh block of at least `l.size()` bytes.
        unsafe { event_work(ptr, l.size(), conn) };
        loop {
            // SAFETY: the block above, relinquished on Ok.
            match unsafe { sq.free(ptr, l) } {
                Ok(()) => break,
                Err(NgmError::WouldBlock) => sq.ready().await,
                Err(e) => panic!("free failed: {e}"),
            }
        }
    }
}

/// A tier shaped for the experiment.
fn tier(profile: bool) -> Arc<Ngm> {
    Arc::new(
        NgmConfig::new()
            .with_shards(SHARDS)
            .with_batch(BATCH, BATCH / 2)
            .with_inflight_limit(1024)
            .with_placement(ngm_core::CorePlacement::Unpinned)
            .with_profile(profile)
            .build()
            .expect("valid config"),
    )
}

/// Drives `CLIENTS` threads × `CONNECTIONS` tasks through submission
/// queues; returns elapsed seconds.
fn run_nonblocking(ngm: &Arc<Ngm>, events: usize) -> f64 {
    let start = std::time::Instant::now();
    let joins: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let ngm = Arc::clone(ngm);
            std::thread::spawn(move || {
                let sq = SubmissionQueue::new(ngm.handle());
                let mut ex = MiniExecutor::new();
                for conn in 0..CONNECTIONS {
                    ex.spawn(connection(sq.clone(), conn, events));
                }
                ex.run();
                assert_eq!(sq.in_flight(), 0, "queue drained");
            })
        })
        .collect();
    for j in joins {
        j.join().expect("client");
    }
    start.elapsed().as_secs_f64()
}

/// The blocking baseline: identical event stream, synchronous calls.
fn run_blocking(ngm: &Arc<Ngm>, events: usize) -> f64 {
    let start = std::time::Instant::now();
    let joins: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let ngm = Arc::clone(ngm);
            std::thread::spawn(move || {
                let mut h = ngm.handle();
                for conn in 0..CONNECTIONS {
                    let l = conn_layout(conn);
                    for _ in 0..events {
                        let p = h.alloc(l).expect("alloc");
                        // SAFETY: fresh block of at least `l.size()` bytes.
                        unsafe { event_work(p, l.size(), conn) };
                        // SAFETY: the block above.
                        unsafe { h.dealloc(p, l) };
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().expect("client");
    }
    start.elapsed().as_secs_f64()
}

/// The side-by-side report.
#[derive(Debug, Clone)]
pub struct ConnsReport {
    /// Connections each client core multiplexed.
    pub connections: usize,
    /// Alloc/free events per connection.
    pub events_per_conn: usize,
    /// Client threads per front-end.
    pub clients: usize,
    /// Non-blocking front-end events per second (all clients).
    pub nonblocking_events_per_sec: f64,
    /// Blocking front-end events per second (all clients).
    pub blocking_events_per_sec: f64,
    /// `ngm_wouldblock_total` after the non-blocking run — how often
    /// backpressure was surfaced as a typed `WouldBlock`.
    pub wouldblocks: u64,
    /// Peak `ngm_submit_depth` bucket observed (submission queue depth).
    pub submit_depth_samples: u64,
    /// Whether the non-blocking tier balanced `allocs == frees` on
    /// every shard at shutdown.
    pub nonblocking_balanced: bool,
    /// As above for the blocking baseline tier.
    pub blocking_balanced: bool,
    /// [`CompletionModel`] predicted non-blocking/blocking speedup.
    pub model_speedup: f64,
    /// The non-blocking tier's PMU report, when the run was profiled.
    pub pmu: Option<ngm_pmu::PmuReport>,
}

impl ConnsReport {
    /// Measured non-blocking / blocking throughput ratio.
    pub fn measured_speedup(&self) -> f64 {
        self.nonblocking_events_per_sec / self.blocking_events_per_sec
    }

    /// The experiment's acceptance line: the per-core connection floor
    /// held, the completion path kept up with blocking, and both
    /// ledgers were exact.
    pub fn accepted(&self) -> bool {
        self.connections >= 10_000
            && self.measured_speedup() >= 1.0
            && self.nonblocking_balanced
            && self.blocking_balanced
    }

    /// Renders the side-by-side table and verdict lines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Connection server — blocking vs completion-based front-end\n"
        );
        let _ = writeln!(
            out,
            "{} connections/core x {} events, {} client thread(s), {} shard(s), batch {}",
            self.connections, self.events_per_conn, self.clients, SHARDS, BATCH
        );
        let _ = writeln!(
            out,
            "\n{:<22} {:>14} {:>10}",
            "front-end", "events/sec", "balanced"
        );
        let _ = writeln!(
            out,
            "{:<22} {:>14.0} {:>10}",
            "blocking", self.blocking_events_per_sec, self.blocking_balanced
        );
        let _ = writeln!(
            out,
            "{:<22} {:>14.0} {:>10}",
            "non-blocking", self.nonblocking_events_per_sec, self.nonblocking_balanced
        );
        let _ = writeln!(
            out,
            "\nspeedup: measured {:.2}x, model {:.2}x; wouldblocks {}, submit-depth samples {}",
            self.measured_speedup(),
            self.model_speedup,
            self.wouldblocks,
            self.submit_depth_samples
        );
        let _ = writeln!(
            out,
            "connections sustained per client core: {} (floor 10000: {})",
            self.connections,
            self.connections >= 10_000
        );
        let _ = writeln!(out, "conns accepted: {}", self.accepted());
        out.push_str(&live::render_pmu(
            "### Hardware counters of the non-blocking row above",
            self.pmu.as_ref(),
        ));
        out
    }
}

/// Runs both front-ends and assembles the report; with `profile` the
/// non-blocking tier arms PMU sessions and the report carries their
/// readings (`--hw`).
pub fn run(scale: Scale, profile: bool) -> ConnsReport {
    let events = 4usize * scale.0.max(1) as usize;

    let blocking_tier = tier(false);
    let blocking_secs = run_blocking(&blocking_tier, events);
    let blocking_down = live::finish(blocking_tier);

    let nb_tier = tier(profile);
    let nb_secs = run_nonblocking(&nb_tier, events);
    let metrics = nb_tier.metrics();
    let wouldblocks = metrics.get_counter("ngm_wouldblock_total").unwrap_or(0);
    let submit_depth_samples = metrics
        .get_histogram("ngm_submit_depth")
        .map_or(0, |h| h.count());
    let nb_down = live::finish(nb_tier);

    let total_events = (CLIENTS * CONNECTIONS * events) as f64;
    let model = CompletionModel {
        batch_size: BATCH as u64,
        inflight_limit: 1024,
        ..CompletionModel::default()
    };
    ConnsReport {
        connections: CONNECTIONS,
        events_per_conn: events,
        clients: CLIENTS,
        nonblocking_events_per_sec: total_events / nb_secs,
        blocking_events_per_sec: total_events / blocking_secs,
        wouldblocks,
        submit_depth_samples,
        nonblocking_balanced: nb_down.clean() && nb_down.balanced(),
        blocking_balanced: blocking_down.clean() && blocking_down.balanced(),
        model_speedup: model.predicted_speedup(),
        pmu: nb_down.pmu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end pass (few connections, one event) so the
    /// plumbing — executor, queue, futures, both ledgers — is covered in
    /// the test tier.
    #[test]
    fn mini_conns_pass_balances_both_frontends() {
        let events = 1;
        let nb = tier(false);
        let ngm = Arc::clone(&nb);
        let j = std::thread::spawn(move || {
            let sq = SubmissionQueue::new(ngm.handle());
            let mut ex = MiniExecutor::new();
            for conn in 0..64 {
                ex.spawn(connection(sq.clone(), conn, events));
            }
            ex.run();
            assert_eq!(sq.in_flight(), 0);
        });
        j.join().expect("client");
        let down = live::finish(nb);
        assert!(down.balanced(), "{down:?}");

        let blocking = tier(false);
        let secs = run_blocking(&blocking, events);
        assert!(secs >= 0.0);
        let down = live::finish(blocking);
        assert!(down.balanced(), "{down:?}");
    }
}
