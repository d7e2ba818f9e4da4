//! The live observer: the tier's ticker plus an HTTP endpoint and a
//! continuous flight recorder.
//!
//! [`Ngm::serve_observer`] starts two background pieces:
//!
//! * an [`HttpServer`] (dependency-free, [`ngm_telemetry::server`])
//!   answering `GET /metrics`, `/heat`, `/spans`, `/blackbox`,
//!   `/healthz`, and `/readyz` — every one a pure read of what the last
//!   tick wrote, so scraping never samples heat or runs the controller;
//! * the tier's [`Autoscaler`] ticker — the same thread
//!   [`Ngm::autoscaler`] starts — calling [`Ngm::tick`] every
//!   `scrape_interval` and, when a `record_path` is configured,
//!   appending one [`ngm_telemetry::recorder::RecordFrame`] per tick to
//!   a size-rotated JSONL recording ([`FlightRecorder`]).
//!
//! Neither piece touches the allocation hot path: all sampling happens
//! on the observer's own threads against counters that already exist,
//! and the cycles those threads spend are themselves accounted
//! (`ngm_obs_scrape_cycles_total`) so the `repro obs` experiment can
//! price the observability tax.
//!
//! Frames are assembled under the controller mutex
//! ([`Ngm::observer_frame`]), the same lock every scale transition
//! stamps its trace event under — so a recording's shard-count timeline
//! can be cross-checked against the `Scale` event stream exactly.

use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Weak};

use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::export::json_str;
use ngm_telemetry::recorder::{FlightRecorder, DEFAULT_ROTATE_BYTES};
use ngm_telemetry::server::{HttpServer, Response, Router};
use ngm_telemetry::span::{reconstruct, SpanRecord};
use ngm_telemetry::trace::TraceEvent;

use crate::api::{Autoscaler, FailureReason, Ngm};
use crate::config::ObserverConfig;
use crate::heat::ShardLifecycle;

/// What `/readyz` reports about the tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Readiness {
    /// At least one shard is serving and nothing looks wedged.
    Ready,
    /// No shard is serving (e.g. every slot is still dormant).
    NotReady(String),
    /// Serving, but impaired: a serving shard's thread has exited
    /// (wedged), or a drain has outlived
    /// [`crate::config::DRAIN_PATIENCE`].
    Degraded(String),
}

impl Readiness {
    /// Whether this readiness maps to HTTP 200.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Readiness::Ready)
    }
}

/// Pure readiness derivation, split out from the endpoint so tests can
/// exercise every edge (all-dormant, wedged, overdue drain) without a
/// live tier.
#[must_use]
pub fn derive_readiness(
    states: &[ShardLifecycle],
    wedged: &[usize],
    drain_overdue: bool,
) -> Readiness {
    if !states.contains(&ShardLifecycle::Serving) {
        return Readiness::NotReady("no serving shards".into());
    }
    if !wedged.is_empty() {
        let list: Vec<String> = wedged.iter().map(ToString::to_string).collect();
        return Readiness::Degraded(format!("wedged serving shards: {}", list.join(",")));
    }
    if drain_overdue {
        return Readiness::Degraded("drain past DRAIN_PATIENCE".into());
    }
    Readiness::Ready
}

/// Guard for the live observer: the ticker/recorder thread plus the HTTP
/// server. Both stop on [`Observer::stop`] or drop, ticker first. Holds
/// only a weak reference to the tier, so dropping the `Ngm` (or calling
/// [`Ngm::shutdown`] after stopping the observer) is never blocked by
/// it; endpoints answer 503 once the tier is gone.
#[derive(Debug)]
pub struct Observer {
    // Field order is drop order: no tick outlives the server's last
    // answer about it.
    ticker: Autoscaler,
    server: HttpServer,
}

impl Observer {
    /// The bound address (resolves port 0 to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Stops the ticker and the HTTP server, joining both.
    pub fn stop(self) {
        self.ticker.stop();
        self.server.stop();
    }
}

impl Ngm {
    /// Starts the observer configured via [`crate::NgmConfig::with_observer`],
    /// if one was configured and not already started. Returns `Ok(None)`
    /// when the config carries no observer (or it was already taken).
    ///
    /// # Errors
    ///
    /// Propagates bind/create failures from [`Ngm::serve_observer`].
    pub fn start_observer(self: &Arc<Self>) -> io::Result<Option<Observer>> {
        match self.take_observer_cfg() {
            Some(cfg) => self.serve_observer(cfg).map(Some),
            None => Ok(None),
        }
    }

    /// Binds the observer endpoint and starts the ticker with an
    /// explicit config (use [`Ngm::start_observer`] for the one stashed
    /// in [`crate::NgmConfig`]). After each [`Ngm::tick`] the ticker
    /// appends one recorded frame when a recording is configured,
    /// metering the frame assembly and the append into
    /// `ngm_obs_scrape_cycles_total` (the tick itself is regular tier
    /// duty — an un-observed elastic tier pays it too).
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the recording file cannot
    /// be created, or the OS refuses the ticker thread.
    pub fn serve_observer(self: &Arc<Self>, cfg: ObserverConfig) -> io::Result<Observer> {
        let mut recorder = match &cfg.record_path {
            Some(path) => Some(FlightRecorder::create(path, DEFAULT_ROTATE_BYTES)?),
            None => None,
        };
        let server = HttpServer::start(cfg.addr.as_str(), build_router(Arc::downgrade(self)))?;
        let ticker = Autoscaler::spawn(Arc::downgrade(self), cfg.scrape_interval, move |ngm| {
            if let Some(rec) = recorder.as_mut() {
                let t0 = cycles_now();
                let _ = rec.append(&ngm.observer_frame());
                ngm.obs_state()
                    .record_obs_cycles(cycles_now().saturating_sub(t0));
            }
        })?;
        Ok(Observer { ticker, server })
    }
}

/// Routes every endpoint over a weak tier reference: each handler
/// upgrades per request and answers 503 once the tier is gone.
fn build_router(weak: Weak<Ngm>) -> Router {
    let w = |weak: &Weak<Ngm>| Weak::clone(weak);
    let metrics = w(&weak);
    let heat = w(&weak);
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
        .route("/heat", move || {
            with_tier(&heat, |ngm| Response::ok_json(heat_json(ngm)))
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
                let readiness = derive_readiness(
                    &ngm.shard_states(),
                    &ngm.wedged_shards(),
                    ngm.drain_overdue(),
                );
                match readiness {
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

/// `/heat`: the tick count plus the raw per-shard heat-window time
/// series (scalar fields; phase histograms stay on `/metrics`).
fn heat_json(ngm: &Ngm) -> String {
    let mut out = format!("{{\"ticks\":{},\"shards\":[", ngm.ticks());
    for s in 0..ngm.num_shards() {
        if s > 0 {
            out.push(',');
        }
        let state = ngm.obs_state().state(s).label();
        out.push_str(&format!(
            "{{\"shard\":{s},\"state\":{},\"frames\":[",
            json_str(state)
        ));
        for (i, f) in ngm.obs_state().frames(s).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tsc\":{},\"ring\":{},\"calls\":{},\"deadlines\":{},\
                 \"retries\":{},\"fallbacks\":{}}}",
                f.tsc, f.ring_occupancy, f.calls, f.deadlines, f.retries, f.fallbacks
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
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
/// of the picture (per-shard heat, ring occupancy,
/// lifecycle, fallback count) is in the flight recording's frames.
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
    fn all_dormant_is_not_ready() {
        let states = [ShardLifecycle::Dormant, ShardLifecycle::Dormant];
        let r = derive_readiness(&states, &[], false);
        assert!(matches!(r, Readiness::NotReady(_)));
        assert!(!r.is_ready());
    }

    #[test]
    fn one_serving_is_ready() {
        let states = [ShardLifecycle::Serving, ShardLifecycle::Dormant];
        assert_eq!(derive_readiness(&states, &[], false), Readiness::Ready);
    }

    #[test]
    fn wedged_serving_shard_degrades() {
        let states = [ShardLifecycle::Serving, ShardLifecycle::Serving];
        let r = derive_readiness(&states, &[1], false);
        match r {
            Readiness::Degraded(why) => assert!(why.contains('1'), "{why}"),
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn overdue_drain_degrades_but_draining_alone_does_not() {
        let states = [ShardLifecycle::Serving, ShardLifecycle::Draining];
        assert_eq!(derive_readiness(&states, &[], false), Readiness::Ready);
        assert!(matches!(
            derive_readiness(&states, &[], true),
            Readiness::Degraded(_)
        ));
    }

    #[test]
    fn retired_and_serving_mix_is_ready() {
        let states = [
            ShardLifecycle::Serving,
            ShardLifecycle::Retired,
            ShardLifecycle::Dormant,
        ];
        assert_eq!(derive_readiness(&states, &[], false), Readiness::Ready);
    }
}
