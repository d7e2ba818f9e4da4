//! The dedicated service thread and its client handles.
//!
//! [`OffloadRuntime`] owns a thread that is the *only* executor of a
//! [`Service`]'s logic — the paper's §3.1.3 observation that "sequential
//! execution can be guaranteed if all allocation codes are running in one
//! specific core", which is what lets the service's internal state dispense
//! with atomics entirely (the service is `&mut self` throughout).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ngm_telemetry::clock::cycles_now;
use ngm_telemetry::export::MetricsSnapshot;
use ngm_telemetry::span::{call_span_id, SpanPhase};
use ngm_telemetry::trace::{TraceEventKind, TraceRing};

use crate::error::ServiceError;
#[cfg(feature = "faultinject")]
use crate::fault::{FaultAction, FaultState};
use crate::pin::{available_cores, pin_current_thread_verified};
use crate::ring::{spsc, Consumer, Producer, PushError, Record, DEFAULT_RING_CELLS};
use crate::slot::RequestSlot;
use crate::stats::{bump, RuntimeStats, StatsSnapshot};
use crate::telemetry::{sampled, RuntimeTelemetry};
use crate::wait::{Ladder, WaitState};

/// A function offloaded to the dedicated core.
///
/// `call` handles synchronous requests (the paper's `malloc`), `post`
/// handles asynchronous ones (`free`). Neither takes `&self` — exclusive
/// access is structural, so implementations need no locks or atomics.
///
/// Messages cost their length, not their type's capacity: a response is
/// written into the client's slot and read there, a post crosses as its
/// [`Record`] words. The service loop therefore calls
/// [`Service::call_into`] and [`Service::post_ref`]; their defaults go
/// through the by-value `call` and `post`, which is all a service with
/// word-sized messages needs to write. One whose messages have room for
/// many addresses overrides them and never moves a whole message.
pub trait Service: Send + 'static {
    /// Synchronous request payload.
    type Req: Send + 'static;
    /// Synchronous response payload. `Default` is what a client's slot
    /// holds before its first response.
    type Resp: Default + Send + 'static;
    /// Fire-and-forget message payload.
    type Post: Record;

    /// Called once on the service thread before the polling loop starts
    /// (after pinning). Lets services mark the thread, e.g. so a global
    /// allocator can detect re-entrant allocation from the service itself.
    fn on_start(&mut self) {}

    /// Called once on the service thread after the polling loop has
    /// ended — stop was requested and every ring is drained — before the
    /// service is handed back to whoever stopped the runtime. The place
    /// to give resources back from the core that acquired them.
    fn on_stop(&mut self) {}

    /// Handles one synchronous request.
    fn call(&mut self, req: Self::Req) -> Self::Resp;

    /// Handles one asynchronous message.
    fn post(&mut self, msg: Self::Post);

    /// Handles one synchronous request, writing the response over `out` —
    /// the client's slot, still holding that client's previous response.
    fn call_into(&mut self, req: Self::Req, out: &mut Self::Resp) {
        *out = self.call(req);
    }

    /// Handles one asynchronous message where the ring decoded it.
    fn post_ref(&mut self, msg: &Self::Post) {
        self.post(*msg);
    }

    /// Called when a polling round found no work: the place for deferred
    /// work that would otherwise stall a client, such as taking back
    /// blocks freed elsewhere or returning empty pages to the OS. It
    /// finishes what clients already did; it does not prepare for what
    /// they might ask next.
    fn idle(&mut self) {}
}

struct ClientChannel<S: Service> {
    slot: Arc<RequestSlot<S::Req, S::Resp>>,
    posts: Consumer<S::Post>,
    /// The publish sequence of the last request the loop claimed: the
    /// next one is this plus one, unless a retract took that one.
    served_seq: u64,
    /// A drop fault is active on this client: the request with this
    /// publish sequence stays unserved until the client retracts it.
    #[cfg(feature = "faultinject")]
    dropping: Option<u64>,
}

struct Shared<S: Service> {
    stop: AtomicBool,
    /// The slot's books and fault knobs.
    handles: RuntimeHandles,
    /// Clients registered since the loop last looked; `None` once the
    /// loop has ended, so a later client's ring is closed at birth.
    injector: Mutex<Option<Vec<ClientChannel<S>>>>,
    has_new: AtomicBool,
}

/// Closes the injector when the service loop ends, by return or by
/// panic: a client registered from then on finds its ring closed and
/// sees the service as stopped, instead of waiting out a deadline on a
/// loop that will never serve it.
struct CloseInjector<'a, S: Service>(&'a Shared<S>);

impl<S: Service> Drop for CloseInjector<'_, S> {
    fn drop(&mut self) {
        let mut injector = self
            .0
            .injector
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *injector = None;
    }
}

/// A client's endpoint to the service core. One handle per client thread;
/// the handle is `Send` but deliberately not `Clone` or `Sync`, mirroring
/// the one-slot-per-thread protocol of the paper's prototype.
pub struct ClientHandle<S: Service> {
    slot: Arc<RequestSlot<S::Req, S::Resp>>,
    posts: Producer<S::Post>,
    ladder: Ladder,
    deadline: Option<Duration>,
    shard: usize,
    /// Set when a deadline-bounded call was abandoned mid-serve, or a
    /// `collect` unwound mid-read: the slot protocol is unrecoverable and
    /// this handle must never call again.
    poisoned: bool,
    stats: Arc<RuntimeStats>,
    telemetry: Arc<RuntimeTelemetry>,
    trace: Option<Arc<TraceRing>>,
    /// The request published and not yet collected: when it was
    /// published, if it is timed, and which population its round trip
    /// lands in.
    in_flight: Option<(Option<u64>, CallKind)>,
    /// Posts this handle has made, which pick the ones it times.
    posts_made: u64,
}

/// Which population a timed synchronous request's round trip belongs
/// to. Either way its two client phases land in the phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// One unit of work per round trip: latency lands in the call
    /// histogram.
    Single,
    /// A request carrying a *batch* of work (magazine refills in the
    /// malloc deployment): latency lands in the separate refill
    /// histogram, so the amortized batched cost stays distinguishable
    /// from the per-call cost.
    Batched,
}

impl<S: Service> ClientHandle<S> {
    /// Traces the terminal events of a request that never completed: the
    /// span reached the ring (and, for an abandoned request, the server)
    /// but ends in a terminal phase instead of `Observed`. The publish
    /// sequence in the span id guarantees the retry the caller issues
    /// next is a distinct span.
    fn finish_failed_span(&self, t0: Option<u64>, terminal: SpanPhase) {
        // A traced handle times every request, so `t0` is there.
        if let (Some(ring), Some(t0)) = (&self.trace, t0) {
            let id = call_span_id(ring.thread(), self.slot.publish_seq());
            let now = cycles_now();
            ring.push_at(t0, TraceEventKind::Span, id, SpanPhase::Enqueue.code());
            if terminal == SpanPhase::Abandoned {
                // The server claimed the request before dying mid-serve;
                // its claim stamp is a racy-but-harmless read.
                ring.push_at(
                    self.slot.claim_stamp().clamp(t0, now),
                    TraceEventKind::Span,
                    id,
                    SpanPhase::Claimed.code(),
                );
            }
            ring.push_at(now, TraceEventKind::Span, id, terminal.code());
        }
    }

    /// Completion telemetry for the timed response just seen, stamped
    /// from just after publication (`t0`) to the moment the client saw
    /// RESPONSE — which, for a request collected some time after it was
    /// published, is when the client came back for it, so the observe
    /// phase then includes the time the response waited in the slot: the
    /// latency histogram of the request's [`CallKind`], the client's two
    /// phase histograms (every timed round trip of either kind, so
    /// together they partition the call and refill populations exactly)
    /// and — when tracing is on — the four span phase events. The service
    /// books the serve phase of the same trip itself.
    ///
    /// Called before the response is collected: the store that releases
    /// the slot to the service is the round trip's last write, so none of
    /// these locked increments waits behind it. The round trip therefore
    /// does not include the client's copy of the response.
    fn record_completion(&mut self, t0: u64, kind: CallKind) {
        let t5 = cycles_now();
        let claim = self.slot.claim_stamp();
        let latency = match kind {
            CallKind::Single => &self.telemetry.call_cycles,
            CallKind::Batched => &self.telemetry.refill_cycles,
        };
        latency.record(t5.saturating_sub(t0));
        self.telemetry.record_phases(t0, claim, t5);
        if let Some(ring) = &self.trace {
            let id = call_span_id(ring.thread(), self.slot.publish_seq());
            // Clamped in order, so a served stamp that has not landed yet
            // (see `RequestSlot::served_stamp`) reads as the claim.
            let t2 = claim.clamp(t0, t5);
            let t3 = self.slot.served_stamp().clamp(t2, t5);
            for (tsc, phase) in [
                (t0, SpanPhase::Enqueue),
                (t2, SpanPhase::Claimed),
                (t3, SpanPhase::Served),
                (t5, SpanPhase::Observed),
            ] {
                ring.push_at(tsc, TraceEventKind::Span, id, phase.code());
            }
        }
    }

    /// Publishes `req` on the slot: the first half of a synchronous
    /// request. A timed round trip is stamped from just after the request
    /// is published, so the service never waits for that clock read, and
    /// its completion lands in the population `kind` names. Every trip is
    /// timed when tracing is on, and otherwise one in 64, picked by the
    /// publish sequence so that the service times the same ones; an
    /// untimed trip reads no clock and books nothing. The slot holds
    /// one request, so a handle carries at most one in flight: collect it
    /// with [`ClientHandle::try_collect`] before publishing again. Nothing is
    /// woken and nothing else collects it; the response waits in the
    /// slot, where the publishing thread finds it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ServiceStopped`] when the service thread is gone,
    /// the handle is poisoned, or a request is already in flight.
    pub fn publish(&mut self, req: S::Req, kind: CallKind) -> Result<(), ServiceError> {
        if self.poisoned || self.in_flight.is_some() {
            return Err(ServiceError::ServiceStopped);
        }
        if !self.is_open() {
            self.stats.mark_service_down();
            return Err(ServiceError::ServiceStopped);
        }
        let Ok(seq) = self.slot.begin(req) else {
            // Only a `collect` that unwound mid-read leaves a response in
            // the slot; its payload cell cannot be trusted again.
            self.poisoned = true;
            return Err(ServiceError::ServiceStopped);
        };
        let t0 = (self.trace.is_some() || sampled(seq)).then(cycles_now);
        self.in_flight = Some((t0, kind));
        Ok(())
    }

    /// The second half of a synchronous request: waits (on the runtime's
    /// wait ladder, under its deadline) for the response to the request
    /// [`ClientHandle::publish`] put in flight, and hands it to `collect`
    /// where it lies (`std::mem::take` returns it by value); the result
    /// is handed on. The slot is free again once this returns, or the
    /// handle is poisoned.
    ///
    /// On expiry the request is *retracted*: if the service never claimed
    /// it, the slot is EMPTY and reusable and [`ServiceError::Deadline`]
    /// comes back. If the service did claim it, one more budget of grace
    /// is granted for the in-flight serve — a served response is never
    /// discarded, which is what keeps alloc/free accounting exact. Only
    /// if even that expires (service wedged mid-serve or dead) is the
    /// request abandoned: the handle is poisoned, every later request
    /// fails fast with [`ServiceError::ServiceStopped`], and the expiry
    /// is reported as a deadline.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Deadline`] when the budget (and, for a claimed
    /// request, its grace) ran out.
    ///
    /// # Panics
    ///
    /// Panics when no request is in flight.
    pub fn try_collect<T>(
        &mut self,
        collect: impl FnOnce(&mut S::Resp) -> T,
    ) -> Result<T, ServiceError> {
        self.wait_collect(self.deadline, collect)
    }

    /// The body of [`ClientHandle::try_collect`] (the runtime's deadline)
    /// and of [`ClientHandle::call`] (`budget` `None`: it waits forever).
    fn wait_collect<T>(
        &mut self,
        budget: Option<Duration>,
        collect: impl FnOnce(&mut S::Resp) -> T,
    ) -> Result<T, ServiceError> {
        let (t0, kind) = self
            .in_flight
            .take()
            .expect("try_collect with no request in flight");
        let mut waited = Duration::ZERO;
        for grace in [false, true] {
            let mut state = WaitState::with_budget(self.ladder, budget);
            if state.wait_until(|| self.slot.has_response()) {
                // Bookkeeping first: collecting releases the slot, and
                // that store is the last this round trip makes.
                if let Some(t0) = t0 {
                    self.record_completion(t0, kind);
                }
                let got = self
                    .slot
                    .poll_response(collect)
                    .expect("only this client collects");
                return Ok(got);
            }
            waited += state.waited();
            if !grace && self.slot.retract() {
                self.finish_failed_span(t0, SpanPhase::Retracted);
                break;
            }
            if grace {
                // Claimed and never answered: the slot cannot be reused.
                self.finish_failed_span(t0, SpanPhase::Abandoned);
                self.poisoned = true;
                self.stats.mark_service_down();
            }
        }
        self.stats.record_deadline();
        Err(ServiceError::Deadline {
            shard: self.shard,
            waited,
        })
    }

    /// One synchronous round trip with no budget: [`ClientHandle::publish`]
    /// and a wait for the response, however long it takes. The response
    /// is taken out of the slot by value, which suits the word-sized
    /// ones; collect a large one in place with
    /// [`ClientHandle::try_collect`].
    ///
    /// # Panics
    ///
    /// Panics when the request is refused — service stopped, handle
    /// poisoned or a request already in flight — where it used to hang:
    /// use [`ClientHandle::publish`] and [`ClientHandle::try_collect`]
    /// for a typed error.
    pub fn call(&mut self, req: S::Req) -> S::Resp {
        self.publish(req, CallKind::Single)
            .and_then(|()| self.wait_collect(None, std::mem::take))
            .unwrap_or_else(|e| {
                panic!(
                    "ClientHandle::call refused ({e}); use publish and try_collect for a typed error"
                )
            })
    }

    /// Posts an asynchronous message, pausing while the ring is
    /// momentarily full. A message that cannot be delivered — the service
    /// thread is gone, or the ring stayed full for the whole deadline
    /// budget — is dropped and counted in
    /// [`RuntimeStats::posts_dropped`]; use [`ClientHandle::try_post`] to
    /// keep it instead.
    pub fn post(&mut self, msg: S::Post) {
        if let Err(ServiceError::Deadline { .. }) = self.try_post(&msg) {
            self.stats.record_post_dropped();
        }
    }

    /// Posts an asynchronous message, reporting ring pressure and service
    /// death instead of hiding them.
    ///
    /// The message is borrowed: only the words it holds are copied into
    /// the ring, and a refusal leaves it — untouched, and nothing of it
    /// written — with the caller, who can buffer or reroute it and keep
    /// alloc/free accounting exact.
    ///
    /// `Ok` carries how many full-ring retries the enqueue needed (zero
    /// means the ring had room immediately) — the saturation signal the
    /// sharded front-end's rebalance path keys off. A timed post's enqueue
    /// latency (retries included) lands in the post-latency histogram,
    /// stamped once the ring has room and recorded before the message is
    /// written: a timed post is booked before the service can drain it.
    /// Every post is timed when tracing is on, and otherwise one in 64,
    /// picked by this handle's count of its posts. A full
    /// ring is waited on along the runtime's wait ladder and refuses after
    /// the runtime's deadline budget ([`ServiceError::Deadline`]).
    /// If the service thread is gone the message counts as dropped
    /// ([`RuntimeStats::posts_dropped`]) and the runtime's `service_down`
    /// flag is raised ([`ServiceError::ServiceStopped`]).
    pub fn try_post(&mut self, msg: &S::Post) -> Result<u32, ServiceError> {
        self.posts_made = self.posts_made.wrapping_add(1);
        let t0 = (self.trace.is_some() || sampled(self.posts_made)).then(cycles_now);
        let mut state = WaitState::with_budget(self.ladder, self.deadline);
        let mut retries = 0u32;
        loop {
            // A timed post is recorded once the ring has room for it and
            // before any of it is written: the store of the record's
            // header, which hands it to the service, is the last this post
            // makes.
            let (telemetry, trace) = (&self.telemetry, &self.trace);
            let pushed = self.posts.push_with(msg, |ring| {
                let Some(t0) = t0 else { return };
                let t1 = cycles_now();
                let waited = t1.saturating_sub(t0);
                telemetry.post_cycles.record(waited);
                if let Some(trace) = trace {
                    trace.push_at(t1, TraceEventKind::Post, ring.len() as u64, waited);
                }
            });
            match pushed {
                Ok(()) => return Ok(retries),
                Err(PushError::Full(())) => {
                    self.stats.post_full_retries.fetch_add(1, Ordering::Relaxed);
                    retries = retries.saturating_add(1);
                    if !state.pause() {
                        self.stats.record_deadline();
                        return Err(ServiceError::Deadline {
                            shard: self.shard,
                            waited: state.waited(),
                        });
                    }
                }
                Err(PushError::Disconnected(())) => {
                    self.stats.record_post_dropped();
                    self.stats.mark_service_down();
                    return Err(ServiceError::ServiceStopped);
                }
            }
        }
    }

    /// Whether this handle's service thread is still consuming: `false`
    /// once the ring's consumer is gone (service stopped or panicked,
    /// whether before or after this client registered).
    pub fn is_open(&self) -> bool {
        !self.posts.is_closed()
    }

    /// This handle's event-trace ring, when tracing is enabled. Higher
    /// layers push domain events (alloc/free with sizes) here; the
    /// offload layer itself records post/refill/wait-transition events.
    pub fn trace_ring(&self) -> Option<&Arc<TraceRing>> {
        self.trace.as_ref()
    }
}

/// Default per-operation deadline budget. Generous — six orders of
/// magnitude above a healthy round trip (sub-microsecond) — so it never
/// fires on a merely oversubscribed machine, but converts a genuinely
/// wedged shard into a typed error in bounded time.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(250);

/// Most posts the service drains from one client per polling round. Not
/// a setting: a sweep from 1 to 256 moved free throughput by nothing
/// above noise, since every free batch already arrives as one post.
const DRAIN_BATCH: usize = 64;

/// Configuration for [`OffloadRuntime::try_start`]: a plain value with
/// public fields, `Default`-able and `const`-friendly via
/// [`RuntimeConfig::new`]. Every client's post ring is
/// [`DEFAULT_RING_CELLS`] cells and a round drains at most 64 posts per
/// client; neither is a setting.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Core to pin the service thread to; `None` leaves it floating. Pin
    /// failures are recorded in the runtime stats, not fatal (this box
    /// may expose a single vCPU).
    pub core: Option<usize>,
    /// Per-thread event-trace ring capacity (0 disables tracing). Rings
    /// drop their oldest event on overflow and count the drops.
    pub trace_capacity: usize,
    /// Index of this runtime within a sharded service tier; names the
    /// thread (`ngm-service-<shard>`) and labels its telemetry. A
    /// standalone runtime is shard 0.
    pub shard: usize,
    /// Deadline budget for client operations (`try_collect`, `try_post`):
    /// how long a client waits on this shard before giving up with
    /// [`ServiceError::Deadline`]. `None` restores the pre-deadline
    /// unbounded behavior. The infallible `call` is never bounded — it
    /// has no error channel.
    pub deadline: Option<Duration>,
}

impl RuntimeConfig {
    /// The `const` default configuration.
    pub const fn new() -> Self {
        RuntimeConfig {
            core: None,
            trace_capacity: 0,
            shard: 0,
            deadline: Some(DEFAULT_DEADLINE),
        }
    }
}

/// The parts of a runtime that outlive its service thread: counters,
/// telemetry and (under `faultinject`) the fault knobs.
///
/// A sharded tier starts each shard through
/// [`OffloadRuntime::try_start_shared`] and keeps these handles beside
/// the runtime, so a shard's counters stay readable — by metrics
/// scrapers, observer endpoints and the final books — without reaching
/// through the runtime, and after its thread has died or been joined.
#[derive(Debug, Clone)]
pub struct RuntimeHandles {
    /// Live counters.
    pub stats: Arc<RuntimeStats>,
    /// Histograms and trace rings.
    pub telemetry: Arc<RuntimeTelemetry>,
    /// The shard's fault knobs.
    #[cfg(feature = "faultinject")]
    pub fault: Arc<FaultState>,
}

impl RuntimeHandles {
    /// Fresh zeroed handles for one slot, with tracing per `cfg`.
    #[must_use]
    pub fn fresh(cfg: &RuntimeConfig) -> Self {
        RuntimeHandles {
            stats: Arc::new(RuntimeStats::new()),
            telemetry: Arc::new(RuntimeTelemetry::new(cfg.trace_capacity)),
            #[cfg(feature = "faultinject")]
            fault: Arc::new(FaultState::new()),
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A shard's readiness-grade condition, as reported by
/// [`OffloadRuntime::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Thread running, accepting calls and posts.
    Serving,
    /// The service thread has exited (orderly or by panic).
    Down,
}

/// Owns the dedicated service thread.
pub struct OffloadRuntime<S: Service> {
    shared: Arc<Shared<S>>,
    thread: Option<JoinHandle<S>>,
    /// The wait ladder of the service loop and of every client.
    ladder: Ladder,
    deadline: Option<Duration>,
    shard: usize,
}

impl<S: Service> OffloadRuntime<S> {
    /// Starts a runtime with default configuration.
    pub fn start(service: S) -> Self {
        Self::try_start(service, RuntimeConfig::new()).expect("failed to spawn service thread")
    }

    /// Starts a runtime with the given configuration, reporting spawn
    /// failure instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::SpawnFailed`] when the OS refuses the thread.
    pub fn try_start(service: S, cfg: RuntimeConfig) -> Result<Self, ServiceError> {
        Self::try_start_shared(service, cfg, &RuntimeHandles::fresh(&cfg))
    }

    /// As [`OffloadRuntime::try_start`], but counting into `handles`,
    /// which the caller keeps: a shard's counters, telemetry and fault
    /// knobs stay readable through them after the runtime is gone.
    ///
    /// # Errors
    ///
    /// [`ServiceError::SpawnFailed`] when the OS refuses the thread.
    pub fn try_start_shared(
        service: S,
        cfg: RuntimeConfig,
        handles: &RuntimeHandles,
    ) -> Result<Self, ServiceError> {
        // Claim the service loop's trace ring before any client can
        // register: this makes runtime thread id 0 the service loop.
        let service_trace = handles.telemetry.new_ring();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            handles: handles.clone(),
            injector: Mutex::new(Some(Vec::new())),
            has_new: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        // Resolved once, here on the starting thread: the core count is
        // read from the process's affinity mask, which a caller may
        // narrow right after the tier is up.
        let ladder = Ladder::for_cores(available_cores());
        let thread = std::thread::Builder::new()
            .name(format!("ngm-service-{}", cfg.shard))
            .spawn(move || service_loop(service, thread_shared, service_trace, cfg.core, ladder))
            .map_err(|_| ServiceError::SpawnFailed)?;
        Ok(OffloadRuntime {
            shared,
            thread: Some(thread),
            ladder,
            deadline: cfg.deadline,
            shard: cfg.shard,
        })
    }

    /// The live fault knobs for this shard's service loop (see
    /// [`FaultState`]). Only present under the `faultinject` feature.
    #[cfg(feature = "faultinject")]
    pub fn fault_state(&self) -> &Arc<FaultState> {
        &self.shared.handles.fault
    }

    /// Registers a new client and returns its handle. May be called at any
    /// time, from any thread holding a reference to the runtime.
    pub fn register_client(&self) -> ClientHandle<S> {
        let handles = &self.shared.handles;
        let slot = Arc::new(RequestSlot::new());
        let (tx, rx) = spsc(DEFAULT_RING_CELLS);
        // A loop that has ended left the injector closed: `rx` drops
        // here and the client's ring is closed from the start.
        if let Some(inj) = self
            .shared
            .injector
            .lock()
            .expect("injector poisoned")
            .as_mut()
        {
            inj.push(ClientChannel {
                slot: Arc::clone(&slot),
                posts: rx,
                served_seq: 0,
                #[cfg(feature = "faultinject")]
                dropping: None,
            });
        }
        self.shared.has_new.store(true, Ordering::Release);
        handles
            .stats
            .clients_registered
            .fetch_add(1, Ordering::Relaxed);
        ClientHandle {
            slot,
            posts: tx,
            ladder: self.ladder,
            deadline: self.deadline,
            shard: self.shard,
            poisoned: false,
            stats: Arc::clone(&handles.stats),
            telemetry: Arc::clone(&handles.telemetry),
            trace: handles.telemetry.new_ring(),
            in_flight: None,
            posts_made: 0,
        }
    }

    /// Asks the service thread to stop without consuming the runtime.
    ///
    /// Outstanding posts are drained, then the loop exits and the shard
    /// stops accepting work — clients observe the closed rings and get
    /// [`ServiceError::ServiceStopped`] from their `try_*` calls. The
    /// sharded tier uses this to decommission one shard while the others
    /// keep serving; a later [`OffloadRuntime::try_shutdown`] joins the
    /// already-exited thread and recovers the service state normally.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Whether the service thread has exited (orderly or by panic).
    /// Observing `true` before shutdown marks the runtime's
    /// `service_down` flag.
    pub(crate) fn is_finished(&self) -> bool {
        let done = self
            .thread
            .as_ref()
            .map(JoinHandle::is_finished)
            .unwrap_or(true);
        if done && !self.shared.stop.load(Ordering::Acquire) {
            self.shared.handles.stats.mark_service_down();
        }
        done
    }

    /// This shard's liveness as the one answer a health endpoint needs.
    pub fn health(&self) -> ShardHealth {
        if self.is_finished() {
            ShardHealth::Down
        } else {
            ShardHealth::Serving
        }
    }

    /// A snapshot of the runtime's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.handles.stats.snapshot()
    }

    /// The runtime's telemetry: latency histograms and trace rings.
    pub fn telemetry(&self) -> &Arc<RuntimeTelemetry> {
        &self.shared.handles.telemetry
    }

    /// The full exportable metrics snapshot (counters, gauges, latency
    /// histograms) — render it with
    /// [`MetricsSnapshot::to_prometheus_text`] or
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.handles.telemetry.metrics(&self.stats())
    }

    /// Stops the service thread (draining outstanding posts first) and
    /// returns the service plus final stats.
    ///
    /// Clients must have finished their synchronous calls; any request
    /// published after shutdown begins may never be answered.
    ///
    /// # Panics
    ///
    /// Panics when the service thread panicked; use
    /// [`OffloadRuntime::try_shutdown`] to keep the final counters.
    pub fn shutdown(self) -> (S, StatsSnapshot) {
        self.try_shutdown()
            .unwrap_or_else(|failure| panic!("offload shutdown failed: {}", failure.error))
    }

    /// As [`OffloadRuntime::shutdown`], but a panicked service thread
    /// comes back as [`ShardFailure`] (with the final counters) instead
    /// of propagating the panic — the sharded tier reports a dead shard
    /// and keeps the survivors' accounting.
    // Cold path by definition (one call per runtime lifetime); the
    // counters ride in the error so a dead shard still reports its books.
    #[allow(clippy::result_large_err)]
    pub fn try_shutdown(mut self) -> Result<(S, StatsSnapshot), ShardFailure> {
        self.shared.stop.store(true, Ordering::Release);
        let stats = &self.shared.handles.stats;
        let Some(thread) = self.thread.take() else {
            return Err(ShardFailure {
                error: ServiceError::AlreadyShutDown,
                stats: stats.snapshot(),
            });
        };
        match thread.join() {
            Ok(svc) => Ok((svc, stats.snapshot())),
            Err(_) => {
                stats.mark_service_down();
                Err(ShardFailure {
                    error: ServiceError::ServicePanicked,
                    stats: stats.snapshot(),
                })
            }
        }
    }
}

/// What [`OffloadRuntime::try_shutdown`] returns for a shard whose
/// service state could not be recovered.
#[derive(Debug, Clone, Copy)]
pub struct ShardFailure {
    /// Why the service state is gone.
    pub error: ServiceError,
    /// The runtime counters as of the failed shutdown (these live outside
    /// the service thread and survive its death).
    pub stats: StatsSnapshot,
}

impl<S: Service> Drop for OffloadRuntime<S> {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.shared.stop.store(true, Ordering::Release);
            let _ = t.join();
        }
    }
}

fn service_loop<S: Service>(
    mut service: S,
    shared: Arc<Shared<S>>,
    trace: Option<Arc<TraceRing>>,
    core: Option<usize>,
    ladder: Ladder,
) -> S {
    // SAFETY: gettid takes no arguments and cannot fail.
    let tid = unsafe { libc::syscall(libc::SYS_gettid) };
    shared
        .handles
        .stats
        .service_tid
        .store(tid as i32, Ordering::Relaxed);
    if let Some(c) = core {
        // Verified pin: installs the affinity mask and waits (bounded)
        // for the migration to actually land, warning instead of
        // panicking if the scheduler never moves us.
        if pin_current_thread_verified(c).is_ok() {
            shared.handles.stats.record_pin(c);
        }
    }
    service.on_start();

    let _close = CloseInjector(&shared);
    let mut clients: Vec<ClientChannel<S>> = Vec::new();
    // The idle pacing and phase telemetry both ride the shared WaitState
    // machine — the loop no longer tracks raw iteration counters itself.
    let mut idle = WaitState::new(ladder);
    let mut phase = idle.phase();
    // The loop is the only writer of the first block of these counters
    // (see `RuntimeStats`), so it updates them with `bump`, a load and a
    // store, where a `fetch_add` would be a locked instruction every round.
    let stats = &*shared.handles.stats;
    let telemetry = &*shared.handles.telemetry;
    // The loop times the trips its clients time: all of them when tracing
    // is on, the sampled ones otherwise.
    let timed = |seq| trace.is_some() || sampled(seq);
    loop {
        bump(&stats.poll_rounds, 1);
        let stopping = shared.stop.load(Ordering::Acquire);

        // Wedge fault: the loop is alive (it still honors stop, so
        // shutdown stays orderly) but serves nothing — the scenario the
        // client-side deadlines exist for.
        #[cfg(feature = "faultinject")]
        if !stopping && shared.handles.fault.is_wedged() {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }

        // Loaded before it is swapped: the swap is a locked instruction,
        // and a new client is rare.
        if shared.has_new.load(Ordering::Relaxed) && shared.has_new.swap(false, Ordering::Acquire) {
            let mut inj = shared.injector.lock().expect("injector poisoned");
            clients.append(inj.as_mut().expect("open while the loop runs"));
        }

        let mut work = 0usize;
        let mut occupancy = 0usize;
        for c in &mut clients {
            #[cfg(feature = "faultinject")]
            let serve_now = {
                // Only a request this look observed is served this round:
                // one that arrives later waits for the next, so none
                // slips past its fault decision.
                let mut serve_now = c.slot.has_request();
                if let Some(seq) = c.dropping {
                    if serve_now && c.slot.publish_seq() == seq {
                        // Still ignoring this exact request; the client's
                        // deadline will retract it. A *new* request (the
                        // sequence moved on) gets a fresh fault decision.
                        serve_now = false;
                    } else {
                        c.dropping = None;
                    }
                }
                if serve_now {
                    match shared.handles.fault.next_action() {
                        FaultAction::Serve => {}
                        FaultAction::Drop => {
                            c.dropping = Some(c.slot.publish_seq());
                            serve_now = false;
                        }
                        FaultAction::Delay(cycles) => {
                            let t0 = cycles_now();
                            while cycles_now().saturating_sub(t0) < cycles {
                                std::hint::spin_loop();
                            }
                        }
                        FaultAction::Kill => {
                            // Panic *inside* the serve, after the request
                            // is claimed: the mid-refill death the client
                            // observes as an abandoned request.
                            let killed = c.slot.serve(
                                |_| Some(cycles_now()),
                                |_q, _out| panic!("faultinject: shard killed mid-serve"),
                            );
                            if !killed {
                                // The client retracted first; keep the
                                // kill armed for the next request.
                                shared.handles.fault.kill_next_call();
                            }
                            serve_now = false;
                        }
                    }
                }
                serve_now
            };
            #[cfg(not(feature = "faultinject"))]
            let serve_now = true;
            if serve_now {
                // A timed trip's stamps lie outside the claim → response
                // window the client waits out: one before the claim CAS,
                // read while the trip expected next is due, one after the
                // RESPONSE store. Only a trip whose sequence a retract
                // moved on is stamped after the CAS.
                let expected = c.served_seq + 1;
                let early = timed(expected).then(cycles_now);
                let mut claim = None;
                let stamp = |seq| {
                    c.served_seq = seq;
                    claim = if seq == expected {
                        early
                    } else {
                        timed(seq).then(cycles_now)
                    };
                    claim
                };
                if c.slot.serve(stamp, |q, out| service.call_into(q, out)) {
                    if let Some(claim) = claim {
                        let served = cycles_now();
                        c.slot.stamp_served(served);
                        telemetry.record_serve(claim, served);
                    }
                    work += 1;
                    bump(&stats.calls_served, 1);
                }
            }
            let read = c.posts.cells_read();
            let drained = c.posts.drain(DRAIN_BATCH, |m| service.post_ref(m));
            occupancy += c.posts.cells_read().wrapping_sub(read);
            if drained > 0 {
                work += drained;
                bump(&stats.posts_served, drained as u64);
                if let Some(ring) = &trace {
                    ring.push(TraceEventKind::Drain, drained as u64, 0);
                }
            }
        }
        // Gauge: ring cells this round drained, which is the backlog
        // whenever no ring held more than `DRAIN_BATCH` records.
        stats.ring_occupancy.store(occupancy, Ordering::Relaxed);

        // Retire clients whose handle is gone and whose ring is drained.
        clients.retain(|c| !(c.posts.is_closed() && c.posts.is_empty() && !c.slot.has_request()));

        if work == 0 {
            if stopping {
                // One final injector sweep so a client registered during
                // shutdown is not silently dropped with queued posts.
                if !shared.has_new.load(Ordering::Acquire) {
                    break;
                }
            }
            bump(&stats.empty_rounds, 1);
            service.idle();
            idle.pause();
        } else {
            idle.reset();
        }
        // Sample the wait loop's escalation phase; export transitions.
        let now = idle.phase();
        if now != phase {
            stats.record_wait_phase(now);
            if let Some(ring) = &trace {
                ring.push(TraceEventKind::WaitTransition, phase as u64, now as u64);
            }
            phase = now;
        }
    }
    service.on_stop();
    service
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// One synchronous request through both halves, under the runtime's
    /// deadline.
    trait Trip<S: Service> {
        fn trip<T>(
            &mut self,
            req: S::Req,
            kind: CallKind,
            collect: impl FnOnce(&mut S::Resp) -> T,
        ) -> Result<T, ServiceError>;
    }

    impl<S: Service> Trip<S> for ClientHandle<S> {
        fn trip<T>(
            &mut self,
            req: S::Req,
            kind: CallKind,
            collect: impl FnOnce(&mut S::Resp) -> T,
        ) -> Result<T, ServiceError> {
            self.publish(req, kind)?;
            self.try_collect(collect)
        }
    }

    /// A service that doubles on call and sums posts.
    #[derive(Debug)]
    struct Doubler {
        sum: u64,
        idles: u64,
    }

    impl Service for Doubler {
        type Req = u64;
        type Resp = u64;
        type Post = u64;

        fn call(&mut self, req: u64) -> u64 {
            req * 2
        }

        fn post(&mut self, msg: u64) {
            self.sum += msg;
        }

        fn idle(&mut self) {
            self.idles += 1;
        }
    }

    fn doubler() -> Doubler {
        Doubler { sum: 0, idles: 0 }
    }

    /// The default runtime config with `edit` applied.
    fn cfg(edit: impl FnOnce(&mut RuntimeConfig)) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::new();
        edit(&mut cfg);
        cfg
    }

    /// Yields until `done` holds; fails with `what` once `within` has
    /// passed.
    fn wait_until(within: Duration, what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + within;
        while !done() {
            assert!(std::time::Instant::now() < deadline, "{what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn single_client_roundtrip() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        assert_eq!(c.call(21), 42);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 1);
        assert_eq!(stats.clients_registered, 1);
    }

    #[test]
    fn the_runtime_resolves_the_ladder_for_this_host_and_its_clients_share_it() {
        let rt = OffloadRuntime::start(doubler());
        assert_eq!(rt.ladder, Ladder::for_cores(available_cores()));
        let mut c = rt.register_client();
        assert_eq!(c.ladder, rt.ladder);
        assert_eq!(c.call(21), 42);
        drop(c);
        rt.shutdown();
    }

    #[test]
    fn health_tracks_thread_exit() {
        let rt = OffloadRuntime::start(doubler());
        assert_eq!(rt.health(), ShardHealth::Serving);
        rt.request_stop();
        wait_until(Duration::from_secs(5), "thread never exited", || {
            rt.health() == ShardHealth::Down
        });
        let _ = rt.try_shutdown();
    }

    #[test]
    fn a_client_registered_after_the_loop_ended_is_closed_at_birth() {
        let rt = OffloadRuntime::start(doubler());
        rt.request_stop();
        wait_until(Duration::from_secs(5), "thread never exited", || {
            rt.is_finished()
        });
        let mut late = rt.register_client();
        assert!(!late.is_open(), "no loop will ever drain this ring");
        assert_eq!(
            late.trip(1, CallKind::Single, std::mem::take),
            Err(ServiceError::ServiceStopped),
            "refused at once, not after a deadline"
        );
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.clients_registered, 1);
    }

    #[test]
    fn posts_are_drained_before_shutdown() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        for i in 1..=100 {
            c.post(i);
        }
        drop(c);
        let (svc, stats) = rt.shutdown();
        assert_eq!(svc.sum, 5050);
        assert_eq!(stats.posts_served, 100);
    }

    #[test]
    fn multiple_client_threads() {
        let rt = OffloadRuntime::start(doubler());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mut c = rt.register_client();
                std::thread::spawn(move || {
                    let mut total = 0u64;
                    for i in 0..50u64 {
                        total += c.call(t * 100 + i);
                        c.post(1);
                    }
                    total
                })
            })
            .collect();
        let grand: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let (svc, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 200);
        assert_eq!(svc.sum, 200);
        // Each call result is 2 * request.
        let expected: u64 = (0..4u64)
            .map(|t| (0..50u64).map(|i| 2 * (t * 100 + i)).sum::<u64>())
            .sum();
        assert_eq!(grand, expected);
    }

    #[test]
    fn idle_hook_runs_when_quiet() {
        let rt = OffloadRuntime::start(doubler());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (svc, stats) = rt.shutdown();
        assert!(svc.idles > 0);
        assert!(stats.idle_fraction() > 0.0);
    }

    #[test]
    fn stop_hook_runs_once_on_the_service_thread_after_the_last_post() {
        use std::thread::ThreadId;

        #[derive(Default)]
        struct Recorder {
            posts: u64,
            started_on: Option<ThreadId>,
            /// (thread, posts seen so far) per `on_stop` call.
            stops: Vec<(ThreadId, u64)>,
        }
        impl Service for Recorder {
            type Req = ();
            type Resp = ();
            type Post = u64;
            fn on_start(&mut self) {
                self.started_on = Some(std::thread::current().id());
            }
            fn on_stop(&mut self) {
                self.stops.push((std::thread::current().id(), self.posts));
            }
            fn call(&mut self, (): ()) {}
            fn post(&mut self, _: u64) {
                self.posts += 1;
            }
        }

        let rt = OffloadRuntime::start(Recorder::default());
        let mut c = rt.register_client();
        for i in 0..100 {
            c.post(i);
        }
        drop(c);
        let (svc, _) = rt.shutdown();
        let service_thread = svc.started_on.expect("on_start ran");
        assert_ne!(service_thread, std::thread::current().id());
        assert_eq!(svc.stops, [(service_thread, 100)]);
    }

    #[test]
    fn client_registered_late_is_served() {
        let rt = OffloadRuntime::start(doubler());
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut c = rt.register_client();
        assert_eq!(c.call(5), 10);
        drop(c);
        drop(rt); // Drop-based shutdown must also join cleanly.
    }

    #[test]
    fn stats_visible_while_running() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        c.call(1);
        // The service bumps its counter after publishing the response, so
        // the client can get here first: wait for it, do not race it.
        wait_until(Duration::from_secs(5), "call never counted", || {
            rt.stats().calls_served > 0
        });
        let s = rt.stats();
        assert_eq!(s.calls_served, 1);
        assert!(s.poll_rounds >= 1);
    }

    /// A runtime with a trace ring: it times every trip and post.
    fn traced(service: Doubler) -> OffloadRuntime<Doubler> {
        OffloadRuntime::try_start(service, cfg(|c| c.trace_capacity = 1024)).unwrap()
    }

    #[test]
    fn call_and_post_latencies_are_recorded() {
        let rt = traced(doubler());
        let mut c = rt.register_client();
        for i in 0..32 {
            c.call(i);
            c.post(i);
        }
        let m = rt.metrics();
        let calls = m.get_histogram("ngm_call_cycles").expect("call histogram");
        assert_eq!(calls.count(), 32);
        assert!(calls.p50() > 0, "a round trip takes nonzero time");
        assert!(calls.p50() <= calls.p99());
        let posts = m.get_histogram("ngm_post_cycles").expect("post histogram");
        assert_eq!(posts.count(), 32);
        drop(c);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 32);
    }

    #[test]
    fn tracing_captures_posts_drains_and_wait_transitions() {
        let rt = OffloadRuntime::try_start(doubler(), cfg(|c| c.trace_capacity = 256)).unwrap();
        let mut c = rt.register_client();
        for i in 0..10 {
            c.post(i);
        }
        c.call(1);
        // Let the server go quiet long enough to escalate its wait phase.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let trace = rt.telemetry().drain_trace();
        let kinds: std::collections::HashSet<_> = trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceEventKind::Post), "client posts traced");
        assert!(kinds.contains(&TraceEventKind::Drain), "drains traced");
        assert!(
            kinds.contains(&TraceEventKind::WaitTransition),
            "idle escalation traced"
        );
        // Service ring is always runtime thread 0; the client is 1.
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == TraceEventKind::Post && e.thread == 1));
        assert!(trace
            .events
            .iter()
            .any(|e| e.kind == TraceEventKind::WaitTransition && e.thread == 0));
        let stats = rt.stats();
        assert!(stats.wait_transitions > 0);
    }

    #[test]
    fn calls_emit_well_nested_spans_and_exact_phase_partition() {
        use ngm_telemetry::span::reconstruct;
        let rt = OffloadRuntime::try_start(doubler(), cfg(|c| c.trace_capacity = 1024)).unwrap();
        let mut c = rt.register_client();
        for i in 0..8 {
            c.call(i);
            c.post(i);
        }
        let m = rt.metrics();
        let call_sum = m.get_histogram("ngm_call_cycles").expect("calls").sum();
        assert_eq!(
            client_phase_sum(&m),
            call_sum,
            "the client's phases partition its round trip exactly (same endpoint stamps)"
        );
        let events = rt.telemetry().drain_trace().events;
        let spans = reconstruct(&events);
        assert_eq!(spans.len(), 8, "one span per synchronous call");
        let posts: Vec<_> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Post)
            .collect();
        assert_eq!(posts.len(), 8, "one event per post, and no span");
        assert_eq!(
            posts.iter().map(|e| e.b).sum::<u64>(),
            m.get_histogram("ngm_post_cycles").expect("posts").sum(),
            "a post event carries the cycles its post waited"
        );
        for s in &spans {
            assert!(
                s.well_nested(),
                "span {:#x} malformed: {:?}",
                s.id,
                s.phases
            );
            assert!(s.phase_monotonic(), "span {:#x} time-travels", s.id);
        }
        for s in &spans {
            assert!(s.completed(), "call spans end Observed");
            assert_eq!(s.phases.len(), 4, "all four call phases present");
        }
        drop(c);
        rt.shutdown();
    }

    /// The sum of the two phases the client records: claim and observe.
    fn client_phase_sum(m: &MetricsSnapshot) -> u64 {
        ["claim", "observe"]
            .iter()
            .map(|n| {
                m.get_histogram(&format!("ngm_phase_{n}_cycles"))
                    .expect("phase series")
                    .sum()
            })
            .sum()
    }

    #[test]
    fn the_service_books_exactly_the_calls_it_served() {
        let rt = traced(doubler());
        let telemetry = Arc::clone(rt.telemetry());
        std::thread::scope(|s| {
            for _ in 0..2 {
                let mut c = rt.register_client();
                s.spawn(move || {
                    for i in 0..200 {
                        c.call(i);
                        let got = c.trip(i, CallKind::Batched, std::mem::take);
                        assert_eq!(got, Ok(i * 2));
                    }
                });
            }
        });
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 800);
        let serve = telemetry.phase_cycles[2].snapshot();
        assert_eq!(serve.count(), stats.calls_served, "one record per serve");
        let sum = |h: &ngm_telemetry::hist::LatencyHistogram| h.snapshot().sum();
        let round_trips = sum(&telemetry.call_cycles) + sum(&telemetry.refill_cycles);
        assert!(
            serve.sum() <= round_trips,
            "serves {} inside round trips {round_trips}",
            serve.sum()
        );
    }

    #[test]
    fn batched_calls_land_in_refill_histogram() {
        let rt = traced(doubler());
        let mut c = rt.register_client();
        for i in 0..8 {
            c.call(i);
        }
        for i in 0..4 {
            assert_eq!(c.trip(i, CallKind::Batched, std::mem::take), Ok(i * 2));
        }
        let m = rt.metrics();
        assert_eq!(
            m.get_histogram("ngm_call_cycles").map(|h| h.count()),
            Some(8),
            "batched round trips must not pollute the per-call population"
        );
        assert_eq!(
            m.get_histogram("ngm_refill_cycles").map(|h| h.count()),
            Some(4)
        );
        // The client's phases partition every round trip, whichever kind.
        let sum_of = |name: &str| m.get_histogram(name).expect(name).sum();
        for (n, recorded) in [
            ("queue", 0),
            ("claim", 8 + 4),
            ("publish", 0),
            ("observe", 8 + 4),
        ] {
            let h = m
                .get_histogram(&format!("ngm_phase_{n}_cycles"))
                .expect("phase series");
            assert_eq!(
                h.count(),
                recorded,
                "phase {n}: one sample per call and refill"
            );
        }
        assert_eq!(
            client_phase_sum(&m),
            sum_of("ngm_call_cycles") + sum_of("ngm_refill_cycles"),
            "same endpoint stamps as the two latency histograms"
        );
        drop(c);
        let (_, stats) = rt.shutdown();
        // A batched call is still a served call: the refill population is
        // a subset of the served calls, not a separate count.
        assert_eq!(stats.calls_served, 12);
    }

    #[test]
    fn a_completion_is_recorded_before_the_slot_is_released() {
        let rt = traced(doubler());
        let telemetry = Arc::clone(rt.telemetry());
        let mut c = rt.register_client();
        for i in 1..=4u64 {
            // `collect` runs before the EMPTY store: the completion it
            // belongs to is already on the books.
            let seen = c.trip(i, CallKind::Single, |r| {
                (*r, telemetry.call_cycles.snapshot().count())
            });
            assert_eq!(seen, Ok((i * 2, i)), "call {i}");
        }
        for i in 1..=4u64 {
            let seen = c.trip(i, CallKind::Batched, |r| {
                (*r, telemetry.refill_cycles.snapshot().count())
            });
            assert_eq!(seen, Ok((i * 2, i)), "refill {i}");
        }
        drop(c);
        rt.shutdown();
    }

    /// Checks, as each post is drained, that the client had already
    /// counted it.
    struct CountedFirst {
        telemetry: Arc<RuntimeTelemetry>,
        drained: Arc<AtomicU64>,
    }

    impl Service for CountedFirst {
        type Req = ();
        type Resp = ();
        type Post = u64;

        fn call(&mut self, _req: ()) {}

        fn post(&mut self, _msg: u64) {
            let drained = self.drained.load(Ordering::Relaxed) + 1;
            let counted = self.telemetry.post_cycles.snapshot().count();
            assert!(
                counted >= drained,
                "post {drained} drained before it was counted ({counted})"
            );
            self.drained.store(drained, Ordering::Release);
        }
    }

    #[test]
    fn a_post_is_counted_before_the_service_can_drain_it() {
        // On two cores a count made after the publish shows late in
        // about one post in 10,000.
        const POSTS: u64 = 100_000;
        // Traced, so every post is timed.
        let config = cfg(|c| c.trace_capacity = 1024);
        let handles = RuntimeHandles::fresh(&config);
        let drained = Arc::new(AtomicU64::new(0));
        let service = CountedFirst {
            telemetry: Arc::clone(&handles.telemetry),
            drained: Arc::clone(&drained),
        };
        let rt = OffloadRuntime::try_start_shared(service, config, &handles).unwrap();
        let mut c = rt.register_client();
        for n in 1..=POSTS {
            assert_eq!(c.try_post(&n), Ok(0));
            // One post in flight at a time: the service is waiting on the
            // ring when each one lands, the moment a late count shows.
            // Spin, then yield, so one core runs both sides too.
            let mut spins = 0u32;
            while drained.load(Ordering::Acquire) < n {
                assert!(!rt.is_finished(), "the service panicked");
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        drop(c);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.posts_served, POSTS);
        assert_eq!(handles.telemetry.post_cycles.snapshot().count(), POSTS);
    }

    /// What the histograms of `t` hold: calls, refills, posts, and the
    /// claim, serve and observe phases, as (count, sum) each.
    fn books(t: &RuntimeTelemetry) -> [(u64, u64); 6] {
        [
            &t.call_cycles,
            &t.refill_cycles,
            &t.post_cycles,
            &t.phase_cycles[1],
            &t.phase_cycles[2],
            &t.phase_cycles[4],
        ]
        .map(|h| {
            let snap = h.snapshot();
            (snap.count(), snap.sum())
        })
    }

    #[test]
    fn an_untraced_runtime_times_the_sampled_trips_and_a_traced_one_all() {
        const N: u64 = 1_000;
        // Odd sequences are calls, even ones refills; post `n` follows
        // trip `n`.
        let expect = |timed: &dyn Fn(u64) -> bool| {
            let count = |keep: &dyn Fn(u64) -> bool| {
                (1..=N).filter(|&n| keep(n) && timed(n)).count() as u64
            };
            [
                count(&|n| n % 2 == 1),
                count(&|n| n % 2 == 0),
                count(&|_| true),
            ]
        };
        for (rt, timed) in [
            (OffloadRuntime::start(doubler()), expect(&sampled)),
            (traced(doubler()), expect(&|_| true)),
        ] {
            let mut c = rt.register_client();
            for n in 1..=N {
                let kind = if n % 2 == 1 {
                    CallKind::Single
                } else {
                    CallKind::Batched
                };
                assert_eq!(c.trip(n, kind, std::mem::take), Ok(2 * n));
                c.post(n);
            }
            drop(c);
            let [calls, refills, posts, claim, serve, observe] = books(rt.telemetry());
            let (_, stats) = rt.shutdown();
            assert_eq!(
                (stats.calls_served, stats.posts_served),
                (N, N),
                "counters count all"
            );
            assert_eq!(
                [calls.0, refills.0, posts.0],
                timed,
                "the timed ones, by sequence"
            );
            let trips = timed[0] + timed[1];
            assert!(trips > 0);
            assert_eq!((claim.0, serve.0, observe.0), (trips, trips, trips));
            assert_eq!(claim.1 + observe.1, calls.1 + refills.1, "same stamps");
        }
        assert_eq!(expect(&sampled)[2], 15, "1,000 trips time 15");
    }

    #[test]
    fn a_trip_a_retract_moved_on_is_still_timed_on_both_sides() {
        // A budget no healthy trip on a busy test host runs out.
        let (rt, entered, release) = stalled_runtime(Duration::from_millis(100));
        let mut c = rt.register_client();
        // Sequences 1..=32 served, none of them timed.
        for n in 1..=32 {
            assert_eq!(
                c.trip(2, CallKind::Single, std::mem::take),
                Ok(2),
                "trip {n}"
            );
        }
        // Sequence 33 is retracted unclaimed; the service, expecting 33,
        // claims 34, which is timed.
        let staller = take_hostage(&rt, &entered);
        assert!(matches!(
            c.trip(2, CallKind::Single, std::mem::take),
            Err(ServiceError::Deadline { .. })
        ));
        release.store(true, Ordering::Release);
        // Served late or abandoned, the hostage's one trip is untimed.
        let _ = staller.join().unwrap();
        assert_eq!(c.trip(2, CallKind::Single, std::mem::take), Ok(2));
        assert!(sampled(34) && !(1..34).any(sampled));
        drop(c);
        let telemetry = Arc::clone(rt.telemetry());
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 34, "32, the hostage's and 34");
        let [calls, _, _, claim, serve, observe] = books(&telemetry);
        assert_eq!((calls.0, claim.0, serve.0, observe.0), (1, 1, 1, 1));
        assert_eq!(claim.1 + observe.1, calls.1);
    }

    #[test]
    fn tracing_disabled_by_default() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        assert!(c.trace_ring().is_none());
        c.call(1);
        c.post(1);
        assert!(rt.telemetry().drain_trace().events.is_empty());
    }

    #[test]
    fn ring_occupancy_gauge_moves() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        for i in 0..200 {
            c.post(i);
        }
        drop(c);
        let (_, stats) = rt.shutdown();
        // All posts eventually drained; the gauge ends at zero.
        assert_eq!(stats.posts_served, 200);
        assert_eq!(stats.ring_occupancy, 0);
    }

    #[test]
    fn post_after_shutdown_is_dropped_and_counted() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        c.post(1);
        let stats = Arc::clone(&rt.shared.handles.stats);
        let (_, _) = rt.shutdown();
        // The service (and every ring consumer) is gone: the post must
        // neither panic nor hang.
        assert_eq!(c.try_post(&2), Err(ServiceError::ServiceStopped));
        c.post(3); // infallible form also degrades silently
        assert!(!c.is_open());
        let snap = stats.snapshot();
        assert_eq!(snap.posts_dropped, 2);
        assert!(snap.service_down);
    }

    #[test]
    fn publish_refuses_a_dead_service() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        assert_eq!(c.trip(21, CallKind::Single, std::mem::take), Ok(42));
        let (_, _) = rt.shutdown();
        assert_eq!(
            c.trip(1, CallKind::Single, std::mem::take),
            Err(ServiceError::ServiceStopped)
        );
        assert_eq!(
            c.trip(1, CallKind::Batched, std::mem::take),
            Err(ServiceError::ServiceStopped)
        );
    }

    #[test]
    fn a_client_maps_128_kib_of_free_ring() {
        let rt = OffloadRuntime::start(doubler());
        let c = rt.register_client();
        // 1.06 MiB before the ring had cells.
        assert_eq!(c.posts.capacity() * crate::ring::CELL_BYTES, 128 * 1024);
        drop(c);
        rt.shutdown();
    }

    #[test]
    fn a_published_request_is_collected_later_and_one_is_in_flight_at_most() {
        let rt = traced(doubler());
        let mut c = rt.register_client();
        assert_eq!(c.publish(5, CallKind::Batched), Ok(()));
        assert_eq!(
            c.publish(6, CallKind::Batched),
            Err(ServiceError::ServiceStopped),
            "the slot holds one request"
        );
        // The response waits in the slot until its publisher collects it.
        wait_until(Duration::from_secs(5), "never served", || {
            rt.stats().calls_served == 1
        });
        assert_eq!(c.try_collect(std::mem::take), Ok(10));
        assert_eq!(rt.telemetry().refill_cycles.snapshot().count(), 1);
        assert_eq!(c.trip(7, CallKind::Single, std::mem::take), Ok(14));
        drop(c);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 2);
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn collecting_with_nothing_in_flight_panics() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        let _ = c.try_collect(std::mem::take);
    }

    #[test]
    #[should_panic(expected = "use publish and try_collect")]
    fn call_on_a_stopped_service_panics_instead_of_hanging() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        let (_, _) = rt.shutdown();
        c.call(1);
    }

    #[test]
    fn try_collect_abandons_and_poisons_when_the_service_dies_mid_serve() {
        #[derive(Debug)]
        struct DiesServing;
        impl Service for DiesServing {
            type Req = u32;
            type Resp = u32;
            type Post = ();
            fn call(&mut self, _req: u32) -> u32 {
                panic!("killed mid-serve");
            }
            fn post(&mut self, _msg: ()) {}
        }
        let rt = OffloadRuntime::try_start(
            DiesServing,
            cfg(|c| c.deadline = Some(Duration::from_millis(10))),
        )
        .unwrap();
        let mut c = rt.register_client();
        // The request is claimed, then the thread dies: the retract
        // loses, the grace period runs out, the request is abandoned.
        let r = c.trip(9, CallKind::Single, std::mem::take);
        assert!(
            matches!(r, Err(ServiceError::Deadline { waited, .. }) if waited >= Duration::from_millis(20)),
            "mid-serve death must surface as a deadline after budget + grace, got {r:?}"
        );
        assert_eq!(
            c.trip(1, CallKind::Single, std::mem::take),
            Err(ServiceError::ServiceStopped),
            "the poisoned handle fails fast"
        );
        drop(c);
        let failure = rt.try_shutdown().expect_err("service thread panicked");
        assert_eq!(failure.error, ServiceError::ServicePanicked);
        assert_eq!(failure.stats.deadlines, 1);
        assert!(failure.stats.service_down);
    }

    #[test]
    fn a_claimed_call_answered_within_its_grace_is_served_not_deadlined() {
        // Claimed at once, answered after 1.5 budgets: the retract loses
        // to the claim, and the grace budget collects the response.
        struct SlowFirst;
        impl Service for SlowFirst {
            type Req = u64;
            type Resp = u64;
            type Post = ();
            fn call(&mut self, req: u64) -> u64 {
                if req == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                req
            }
            fn post(&mut self, (): ()) {}
        }
        let rt = OffloadRuntime::try_start(
            SlowFirst,
            cfg(|c| c.deadline = Some(Duration::from_millis(200))),
        )
        .unwrap();
        let mut c = rt.register_client();
        assert_eq!(c.trip(1, CallKind::Single, std::mem::take), Ok(1));
        assert_eq!(
            c.trip(2, CallKind::Single, std::mem::take),
            Ok(2),
            "the same handle is served again"
        );
        drop(c);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.deadlines, 0, "a served response is never a deadline");
        assert_eq!(stats.calls_served, 2);
        assert!(!stats.service_down);
    }

    #[test]
    fn a_collect_that_unwinds_poisons_the_handle() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.trip(1, CallKind::Single, |_: &mut u64| panic!("collect unwound"))
        }));
        assert!(unwound.is_err());
        assert_eq!(
            c.trip(2, CallKind::Single, std::mem::take),
            Err(ServiceError::ServiceStopped),
            "the unread response still holds the slot"
        );
        drop(c);
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.calls_served, 1);
    }

    #[test]
    fn try_post_reports_full_ring_pressure() {
        // The ring fills while the service is held; the next post waits
        // until the service is let go and drains, and reports the
        // retries that took.
        let (rt, entered, release) = stalled_runtime(Duration::from_secs(30));
        let staller = take_hostage(&rt, &entered);
        let mut c = rt.register_client();
        for i in 0..DEFAULT_RING_CELLS as u64 {
            assert_eq!(c.try_post(&i), Ok(0), "ring has room");
        }
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            release.store(true, Ordering::Release);
        });
        let retries = c
            .try_post(&1)
            .expect("the ring drains once the service is let go");
        assert!(retries > 0, "a full ring must show as retries");
        releaser.join().unwrap();
        assert_eq!(staller.join().unwrap(), Ok(1));
        drop(c);
        let (svc, stats) = rt.shutdown();
        assert_eq!(stats.posts_served, DEFAULT_RING_CELLS as u64 + 1);
        assert_eq!(svc.posts, DEFAULT_RING_CELLS as u64 + 1);
        assert_eq!(stats.post_full_retries, u64::from(retries));
    }

    #[test]
    fn a_post_refused_by_a_full_ring_never_reaches_the_service() {
        let (rt, entered, release) = stalled_runtime(Duration::from_millis(10));
        let staller = take_hostage(&rt, &entered);
        let mut c = rt.register_client();
        let cells = DEFAULT_RING_CELLS as u64;
        for i in 1..=cells {
            c.try_post(&i).expect("ring has room");
        }
        for _ in 0..3 {
            assert!(matches!(
                c.try_post(&(1 << 40)),
                Err(ServiceError::Deadline { .. })
            ));
        }
        release.store(true, Ordering::Release);
        // The hostage call outlived its own budget and grace meanwhile.
        assert!(matches!(
            staller.join().unwrap(),
            Ok(1) | Err(ServiceError::Deadline { .. })
        ));
        drop(c);
        let (svc, stats) = rt.shutdown();
        assert_eq!(stats.posts_served, cells, "accepted posts all drained");
        assert_eq!(svc.sum, cells * (cells + 1) / 2, "a refusal wrote nothing");
        assert!(stats.deadlines >= 3, "each refusal is a deadline");
    }

    #[test]
    fn request_stop_decommissions_without_consuming() {
        let rt = OffloadRuntime::start(doubler());
        let mut c = rt.register_client();
        for i in 1..=10 {
            c.post(i);
        }
        rt.request_stop();
        wait_until(Duration::from_secs(5), "service never stopped", || {
            !c.is_open()
        });
        // Work already in the ring was drained before the loop exited;
        // work posted after the stop is refused, not lost silently.
        assert_eq!(c.try_post(&11), Err(ServiceError::ServiceStopped));
        drop(c);
        let (svc, stats) = rt.try_shutdown().expect("clean exit joins normally");
        assert_eq!(svc.sum, 55);
        assert_eq!(stats.posts_served, 10);
        assert_eq!(stats.posts_dropped, 1);
    }

    #[test]
    fn try_shutdown_reports_service_panic_with_stats() {
        #[derive(Debug)]
        struct Exploder;
        impl Service for Exploder {
            type Req = ();
            type Resp = ();
            type Post = ();
            fn call(&mut self, _req: ()) {}
            fn post(&mut self, _msg: ()) {
                panic!("boom");
            }
        }
        let rt = OffloadRuntime::start(Exploder);
        let mut c = rt.register_client();
        // The service panics draining this post; posting is async, so
        // the client is not stuck waiting on a reply that never comes.
        c.post(());
        // Wait for the death to become observable before shutting down.
        wait_until(Duration::from_secs(5), "service never died", || {
            !c.is_open()
        });
        drop(c);
        let failure = rt.try_shutdown().expect_err("service panicked");
        assert_eq!(failure.error, ServiceError::ServicePanicked);
        assert!(failure.stats.service_down);
    }

    /// A service that stalls inside `call` when asked to (req == 1),
    /// holding the service thread hostage until released — the
    /// wedged-but-alive scenario deadlines exist for. Counts and sums
    /// its posts.
    struct Staller {
        entered: Arc<AtomicBool>,
        release: Arc<AtomicBool>,
        posts: u64,
        sum: u64,
    }

    impl Service for Staller {
        type Req = u64;
        type Resp = u64;
        type Post = u64;

        fn call(&mut self, req: u64) -> u64 {
            if req == 1 {
                self.entered.store(true, Ordering::Release);
                while !self.release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            req
        }

        fn post(&mut self, msg: u64) {
            self.posts += 1;
            self.sum += msg;
        }
    }

    fn stalled_runtime(
        deadline: Duration,
    ) -> (OffloadRuntime<Staller>, Arc<AtomicBool>, Arc<AtomicBool>) {
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let rt = OffloadRuntime::try_start(
            Staller {
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
                posts: 0,
                sum: 0,
            },
            cfg(|c| c.deadline = Some(deadline)),
        )
        .unwrap();
        (rt, entered, release)
    }

    /// Holds `rt`'s service thread inside another client's call (until
    /// `release` is set) and returns once it is there; nothing drains
    /// meanwhile. The join gives that call's outcome.
    fn take_hostage(
        rt: &OffloadRuntime<Staller>,
        entered: &AtomicBool,
    ) -> std::thread::JoinHandle<Result<u64, ServiceError>> {
        let mut stall_client = rt.register_client();
        let staller =
            std::thread::spawn(move || stall_client.trip(1, CallKind::Single, std::mem::take));
        while !entered.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        staller
    }

    #[test]
    fn try_collect_deadlines_against_stalled_service_and_recovers() {
        let (rt, entered, release) = stalled_runtime(Duration::from_millis(10));
        let staller = take_hostage(&rt, &entered);
        let mut c = rt.register_client();
        // The service thread is hostage inside another client's call: our
        // request is never claimed, so the deadline fires and retracts.
        let start = std::time::Instant::now();
        let r = c.trip(2, CallKind::Single, std::mem::take);
        assert!(
            matches!(r, Err(ServiceError::Deadline { .. })),
            "expected deadline, got {r:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "deadline bounded the wait"
        );
        release.store(true, Ordering::Release);
        let stalled_result = staller.join().unwrap();
        // The hostage call either completed late (within its grace
        // period) or was itself deadline'd; it must not hang.
        assert!(
            matches!(stalled_result, Ok(1) | Err(ServiceError::Deadline { .. })),
            "unexpected stalled-call outcome {stalled_result:?}"
        );
        // The retracted slot is reusable: the same handle recovers.
        assert_eq!(c.trip(3, CallKind::Single, std::mem::take), Ok(3));
        let stats = rt.stats();
        assert!(stats.deadlines >= 1, "deadline expiries counted");
        drop(c);
        drop(rt);
    }

    #[test]
    fn try_post_gives_up_when_ring_stays_full() {
        let (rt, entered, release) = stalled_runtime(Duration::from_millis(10));
        let staller = take_hostage(&rt, &entered);
        let mut c = rt.register_client();
        // The service is hostage: nothing drains. Fill the ring — one
        // cell per one-word post — then prove the overflow post comes
        // back instead of spinning forever.
        for i in 0..DEFAULT_RING_CELLS as u64 {
            c.try_post(&i).expect("ring has room");
        }
        match c.try_post(&u64::MAX) {
            Err(ServiceError::Deadline { waited, .. }) => {
                assert!(waited >= Duration::from_millis(10));
            }
            other => panic!("expected deadline, got {other:?}"),
        }
        let stats = rt.stats();
        assert!(stats.deadlines >= 1);
        assert!(stats.post_full_retries >= 1, "full-ring retries counted");
        release.store(true, Ordering::Release);
        let _ = staller.join().unwrap();
        drop(c);
        drop(rt);
    }

    #[test]
    fn no_deadline_config_restores_unbounded_calls() {
        let rt = OffloadRuntime::try_start(doubler(), cfg(|c| c.deadline = None)).unwrap();
        let mut c = rt.register_client();
        assert_eq!(c.trip(21, CallKind::Single, std::mem::take), Ok(42));
        assert_eq!(c.trip(3, CallKind::Batched, std::mem::take), Ok(6));
        let (_, stats) = rt.shutdown();
        assert_eq!(stats.deadlines, 0);
    }

    #[test]
    fn is_finished_flags_unclean_death() {
        #[derive(Debug)]
        struct QuitEarly;
        impl Service for QuitEarly {
            type Req = ();
            type Resp = ();
            type Post = ();
            fn call(&mut self, _req: ()) {}
            fn post(&mut self, _msg: ()) {}
            fn idle(&mut self) {
                panic!("service dies on first idle round");
            }
        }
        let rt = OffloadRuntime::start(QuitEarly);
        wait_until(Duration::from_secs(5), "service never died", || {
            rt.is_finished()
        });
        assert!(rt.stats().service_down);
        let _ = rt.try_shutdown().expect_err("thread panicked");
    }

    /// Deterministic fault-injection tests: one per fault kind. None of
    /// them relies on a watchdog — each asserts a typed error within the
    /// configured deadline, or a recovery after the fault clears.
    #[cfg(feature = "faultinject")]
    mod faults {
        use super::*;

        fn fast_deadline_runtime() -> OffloadRuntime<Doubler> {
            OffloadRuntime::try_start(
                doubler(),
                cfg(|c| c.deadline = Some(Duration::from_millis(20))),
            )
            .unwrap()
        }

        #[test]
        fn wedged_shard_returns_deadline_then_recovers() {
            let rt = fast_deadline_runtime();
            let mut c = rt.register_client();
            assert_eq!(
                c.trip(5, CallKind::Single, std::mem::take),
                Ok(10),
                "healthy before the fault"
            );
            rt.fault_state().set_wedged(true);
            let start = std::time::Instant::now();
            let r = c.trip(6, CallKind::Single, std::mem::take);
            assert!(
                matches!(r, Err(ServiceError::Deadline { shard: 0, .. })),
                "wedged shard must deadline, got {r:?}"
            );
            assert!(start.elapsed() < Duration::from_secs(10));
            rt.fault_state().set_wedged(false);
            assert_eq!(
                c.trip(7, CallKind::Single, std::mem::take),
                Ok(14),
                "retracted slot reusable"
            );
            let (_, stats) = {
                drop(c);
                rt.shutdown()
            };
            assert_eq!(stats.deadlines, 1);
        }

        #[test]
        fn wedged_shard_bounds_posts_too() {
            let rt = fast_deadline_runtime();
            let mut c = rt.register_client();
            rt.fault_state().set_wedged(true);
            let last = DEFAULT_RING_CELLS as u64 + 1;
            for i in 1..last {
                c.try_post(&i).expect("ring has room");
            }
            match c.try_post(&last) {
                Err(ServiceError::Deadline { .. }) => {}
                other => panic!("expected bounded full-ring failure, got {other:?}"),
            }
            rt.fault_state().set_wedged(false);
            c.try_post(&last).expect("ring drains after unwedge");
            drop(c);
            let (svc, stats) = rt.shutdown();
            assert_eq!(
                svc.sum,
                last * (last + 1) / 2,
                "all delivered posts drained"
            );
            assert_eq!(stats.posts_served, last);
        }

        #[test]
        fn dropped_response_is_retracted_and_next_call_recovers() {
            let rt = fast_deadline_runtime();
            let mut c = rt.register_client();
            rt.fault_state().set_drop_every(1);
            let r = c.trip(1, CallKind::Single, std::mem::take);
            assert!(
                matches!(r, Err(ServiceError::Deadline { .. })),
                "dropped response must deadline, got {r:?}"
            );
            rt.fault_state().set_drop_every(0);
            assert_eq!(c.trip(2, CallKind::Single, std::mem::take), Ok(4));
            drop(c);
            let (_, stats) = rt.shutdown();
            assert_eq!(stats.deadlines, 1);
            assert_eq!(stats.calls_served, 1, "the dropped call was never served");
        }

        #[test]
        fn delay_below_budget_is_recoverable_latency() {
            let rt = OffloadRuntime::try_start(
                doubler(),
                cfg(|c| c.deadline = Some(Duration::from_secs(5))),
            )
            .unwrap();
            let mut c = rt.register_client();
            rt.fault_state().set_delay_cycles(10_000);
            assert_eq!(
                c.trip(4, CallKind::Single, std::mem::take),
                Ok(8),
                "delayed but served"
            );
            rt.fault_state().set_delay_cycles(0);
            drop(c);
            let (_, stats) = rt.shutdown();
            assert_eq!(stats.calls_served, 1);
            assert_eq!(stats.deadlines, 0);
        }

        #[test]
        fn kill_mid_serve_abandons_poisons_and_reports_panic() {
            let rt = fast_deadline_runtime();
            let mut c = rt.register_client();
            rt.fault_state().kill_next_call();
            let start = std::time::Instant::now();
            let r = c.trip(1, CallKind::Single, std::mem::take);
            assert!(
                matches!(r, Err(ServiceError::Deadline { .. })),
                "killed mid-serve must surface as an abandoned deadline, got {r:?}"
            );
            // Budget + grace, with generous slack for CI.
            assert!(start.elapsed() < Duration::from_secs(10));
            // The slot is unrecoverable: the handle fails fast forever.
            assert_eq!(
                c.trip(2, CallKind::Single, std::mem::take),
                Err(ServiceError::ServiceStopped)
            );
            drop(c);
            let failure = rt.try_shutdown().expect_err("service thread panicked");
            assert_eq!(failure.error, ServiceError::ServicePanicked);
            assert!(failure.stats.service_down);
        }
    }
}
