//! The live observer: an HTTP endpoint and a continuous flight
//! recorder.
//!
//! [`Ngm::serve_observer`] starts up to two background pieces:
//!
//! * an [`HttpServer`] (dependency-free, [`ngm_telemetry::server`])
//!   answering `GET /metrics`, `/spans`, `/blackbox`, `/healthz`, and
//!   `/readyz` — every one a read of the tier's counters, rings and
//!   health at request time;
//! * when a `record_path` is configured, the recorder thread, appending
//!   one [`ngm_telemetry::recorder::RecordFrame`] of cumulative per-shard
//!   counters every `scrape_interval` to a size-rotated JSONL recording
//!   ([`FlightRecorder`]). That recording is the tier's one time series:
//!   a window is the difference of two of its frames.
//!
//! Neither piece touches the allocation hot path: all sampling happens
//! on the observer's own threads against counters that already exist,
//! and the cycles those threads spend are themselves accounted
//! (`ngm_obs_scrape_cycles_total`) so the `repro obs` experiment can
//! price the observability tax.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use ngm_offload::ShardHealth;
use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::export::json_str;
use ngm_telemetry::recorder::{FlightRecorder, DEFAULT_ROTATE_BYTES};
use ngm_telemetry::server::{HttpServer, Response, Router};
use ngm_telemetry::span::{reconstruct, SpanRecord};
use ngm_telemetry::trace::TraceEvent;

use crate::api::{FailureReason, Ngm};
use crate::config::ObserverConfig;

/// What `/readyz` reports about the tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Readiness {
    /// Every shard is serving.
    Ready,
    /// No shard is serving: every service thread has exited.
    NotReady(String),
    /// Serving, but impaired: some shard's thread has exited.
    Degraded(String),
}

impl Readiness {
    /// Whether this readiness maps to HTTP 200.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Readiness::Ready)
    }
}

/// Pure readiness derivation over every shard's health, split out from
/// the endpoint so tests can exercise every edge without a live tier.
#[must_use]
pub fn derive_readiness(health: &[ShardHealth]) -> Readiness {
    let down: Vec<String> = (0..health.len())
        .filter(|&s| health[s] == ShardHealth::Down)
        .map(|s| s.to_string())
        .collect();
    if down.len() == health.len() {
        Readiness::NotReady("every shard is down".into())
    } else if !down.is_empty() {
        Readiness::Degraded(format!("shards down: {}", down.join(",")))
    } else {
        Readiness::Ready
    }
}

/// How often the recorder re-checks its stop flag while sleeping between
/// frames, so stopping it returns promptly even under a long interval.
const STOP_POLL: Duration = Duration::from_millis(10);

/// The recorder thread: every `interval` (clamped to 1 ms) it upgrades
/// its weak tier reference and appends one [`Ngm::observer_frame`] to
/// the recording, metering the frame assembly and the append into
/// `ngm_obs_scrape_cycles_total`. Stops and joins on drop.
#[derive(Debug)]
struct RecorderThread {
    stop: Arc<AtomicBool>,
    /// The recorder's own append count, stored (`Release`) after each
    /// append has flushed its line; a reader that loads n (`Acquire`)
    /// finds those n appends' lines flushed.
    frames: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl RecorderThread {
    fn spawn(
        weak: Weak<Ngm>,
        interval: Duration,
        mut rec: FlightRecorder,
    ) -> io::Result<RecorderThread> {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let (stop_flag, appended) = (Arc::clone(&stop), Arc::clone(&frames));
        let thread = std::thread::Builder::new()
            .name("ngm-recorder".into())
            .spawn(move || loop {
                let mut slept = Duration::ZERO;
                while slept < interval {
                    if stop_flag.load(Ordering::Acquire) {
                        return;
                    }
                    let step = STOP_POLL.min(interval - slept);
                    std::thread::sleep(step);
                    slept += step;
                }
                if stop_flag.load(Ordering::Acquire) {
                    return;
                }
                let Some(ngm) = weak.upgrade() else { return };
                let t0 = cycles_now();
                let _ = rec.append(&ngm.observer_frame());
                ngm.obs_state()
                    .record_obs_cycles(cycles_now().saturating_sub(t0));
                appended.store(rec.frames_recorded(), Ordering::Release);
            })?;
        Ok(RecorderThread {
            stop,
            frames,
            thread: Some(thread),
        })
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for RecorderThread {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Guard for the live observer: the recorder thread, when a recording
/// is configured, plus the HTTP server. Both stop on [`Observer::stop`]
/// or drop, recorder first. Holds only a weak reference to the tier, so
/// dropping the `Ngm` (or calling [`Ngm::shutdown`] after stopping the
/// observer) is never blocked by it; endpoints answer 503 once the tier
/// is gone.
#[derive(Debug)]
pub struct Observer {
    // Field order is drop order: no frame outlives the server's last
    // answer about the tier.
    recorder: Option<RecorderThread>,
    server: HttpServer,
}

impl Observer {
    /// The bound address (resolves port 0 to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Frames the recorder has appended to the recording so far (0
    /// without one). Final once [`Observer::stop`] returns.
    #[must_use]
    pub fn frames_recorded(&self) -> u64 {
        self.recorder
            .as_ref()
            .map_or(0, |r| r.frames.load(Ordering::Acquire))
    }

    /// Stops the recorder and the HTTP server, joining both; what they
    /// counted stays readable.
    pub fn stop(&mut self) {
        if let Some(r) = &mut self.recorder {
            r.stop();
        }
        self.server.stop();
    }
}

impl Ngm {
    /// Binds the observer endpoint and, when a recording is configured,
    /// starts the recorder thread: one frame every `scrape_interval`.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the recording file cannot
    /// be created, or the OS refuses the recorder thread.
    pub fn serve_observer(self: &Arc<Self>, cfg: ObserverConfig) -> io::Result<Observer> {
        let rec = match &cfg.record_path {
            Some(path) => Some(FlightRecorder::create(path, DEFAULT_ROTATE_BYTES)?),
            None => None,
        };
        let server = HttpServer::start(cfg.addr.as_str(), build_router(Arc::downgrade(self)))?;
        let recorder = rec
            .map(|rec| RecorderThread::spawn(Arc::downgrade(self), cfg.scrape_interval, rec))
            .transpose()?;
        Ok(Observer { recorder, server })
    }
}

/// Routes every endpoint over a weak tier reference: each handler
/// upgrades per request and answers 503 once the tier is gone.
fn build_router(weak: Weak<Ngm>) -> Router {
    let w = |weak: &Weak<Ngm>| Weak::clone(weak);
    let metrics = w(&weak);
    let spans = w(&weak);
    let blackbox = w(&weak);
    let healthz = w(&weak);
    let readyz = w(&weak);
    Router::new()
        .route("/metrics", move || {
            with_tier(&metrics, |ngm| {
                let t0 = cycles_now();
                let body = ngm.metrics().to_prometheus_text();
                ngm.obs_state()
                    .record_obs_cycles(cycles_now().saturating_sub(t0));
                Response::ok_text(body)
            })
        })
        .route("/spans", move || {
            with_tier(&spans, |ngm| Response::ok_json(spans_json(ngm)))
        })
        .route("/blackbox", move || {
            with_tier(&blackbox, |ngm| Response::ok_json(blackbox_json(ngm)))
        })
        .route("/healthz", move || {
            with_tier(&healthz, |_| Response::ok_text("ok\n"))
        })
        .route("/readyz", move || {
            with_tier(&readyz, |ngm| {
                match derive_readiness(&ngm.shard_healths()) {
                    Readiness::Ready => Response::ok_text("ready\n"),
                    Readiness::NotReady(why) => {
                        Response::unavailable(format!("not ready: {why}\n"))
                    }
                    Readiness::Degraded(why) => Response::unavailable(format!("degraded: {why}\n")),
                }
            })
        })
}

fn with_tier(weak: &Weak<Ngm>, f: impl FnOnce(&Ngm) -> Response) -> Response {
    match weak.upgrade() {
        Some(ngm) => f(&ngm),
        None => Response::unavailable("tier gone\n"),
    }
}

/// How many reconstructed spans `/spans` returns (newest by start tsc).
const SPANS_LAST_K: usize = 64;

/// `/spans`: the last-K request spans reconstructed from every shard's
/// trace ring (empty unless `trace_capacity > 0`).
fn spans_json(ngm: &Ngm) -> String {
    let mut spans: Vec<SpanRecord> = Vec::new();
    for s in 0..ngm.num_shards() {
        let events = ngm.shard_telemetry(s).peek_trace(4096);
        spans.extend(reconstruct(&events));
    }
    spans.sort_by_key(|sp| sp.phases.first().map_or(0, |&(_, tsc)| tsc));
    let skip = spans.len().saturating_sub(SPANS_LAST_K);
    let mut out = String::from("{\"spans\":[");
    for (i, sp) in spans.iter().skip(skip).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"completed\":{},\"well_nested\":{},\"total_cycles\":{},\"phases\":[",
            sp.id,
            sp.completed(),
            sp.well_nested(),
            sp.total_cycles().unwrap_or(0),
        ));
        for (j, (phase, tsc)) in sp.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{tsc}]", json_str(phase.label())));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// How many of the implicated shard's trace events `/blackbox` shows
/// up to each failure.
const FAILURE_TAIL: usize = 64;

/// `/blackbox`: every failure edge still in the control ring, oldest
/// first, each with the implicated shard's trace tail up to the
/// failure's timestamp, read from the rings at request time. The rest
/// of the picture (per-shard counters, ring occupancy, health, fallback
/// count) is in the flight recording's frames.
pub(crate) fn blackbox_json(ngm: &Ngm) -> String {
    let mut traces: Vec<Option<Vec<TraceEvent>>> = vec![None; ngm.num_shards()];
    let mut out = String::from("{\"failures\":[");
    for (i, f) in ngm.failures().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let shard = f.b as usize;
        let reason = FailureReason::from_code(f.a).map_or("?", FailureReason::label);
        out.push_str(&format!(
            "{{\"reason\":{},\"shard\":{shard},\"tsc\":{},\"trace\":[",
            json_str(reason),
            f.tsc
        ));
        // Peeked once per shard: every failure of a shard reads one copy.
        let trace =
            traces[shard].get_or_insert_with(|| ngm.shard_telemetry(shard).peek_trace(usize::MAX));
        let end = trace.partition_point(|e| e.tsc <= f.tsc);
        for (j, e) in trace[end.saturating_sub(FAILURE_TAIL)..end]
            .iter()
            .enumerate()
        {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tsc\":{},\"thread\":{},\"kind\":{},\"a\":{},\"b\":{}}}",
                e.tsc,
                e.thread,
                json_str(e.kind.label()),
                e.a,
                e.b
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readiness_follows_shard_health() {
        use ShardHealth::{Down, Serving};
        let table: [(&[ShardHealth], Readiness); 3] = [
            (&[Serving, Serving], Readiness::Ready),
            (
                &[Serving, Down],
                Readiness::Degraded("shards down: 1".into()),
            ),
            (
                &[Down, Down],
                Readiness::NotReady("every shard is down".into()),
            ),
        ];
        for (health, want) in table {
            let got = derive_readiness(health);
            assert_eq!(got.is_ready(), want == Readiness::Ready, "{health:?}");
            assert_eq!(got, want, "{health:?}");
        }
    }
}
