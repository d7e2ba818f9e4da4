//! The one layered configuration for the whole allocator: [`NgmConfig`].
//!
//! One plain value is the only way to configure a tier or the global
//! adapter: every knob is a public field, the whole thing is
//! `const`-constructible (so it can sit in a `#[global_allocator]`
//! static), chainable through `with_*` setters, `Default`-able, and
//! validated exactly once — [`NgmConfig::build`] returns a typed
//! [`NgmError`] instead of clamping silently or panicking.

use std::time::Duration;

use ngm_heap::AllocError;
use ngm_offload::ServiceError;

use crate::service::MAX_BATCH;

/// Maximum number of service shards in one allocator.
///
/// Small on purpose: every shard is a dedicated pinned core (§2.3 — the
/// point is to give the allocator *a* room, not the whole house), and the
/// shard index must fit the owner-id encoding below.
pub const MAX_SHARDS: usize = 8;

/// Base of the heap owner-id space: shard `s` stamps `OWNER_BASE | s`
/// into every segment it creates ("ngm" shifted to leave the low byte for
/// the shard index). [`ngm_heap::owner_of_small_ptr`] then recovers the
/// owning shard from any small-block address — the pure-by-address
/// routing the sharded free path relies on.
pub const OWNER_BASE: u64 = 0x6e67_6d00;

/// Owner id stamped into segments of the inline fallback heap — the low
/// byte is `0xff`, outside the shard range (shards use `0..MAX_SHARDS`),
/// so the same address-routing read that sends a free to its shard sends
/// a degraded-mode block back to the fallback heap instead.
pub const FALLBACK_OWNER: u64 = OWNER_BASE | 0xff;

/// Where the service threads are pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorePlacement {
    /// Pin shard `i` to core `cores − 1 − i` when the machine has more
    /// cores than shards (the paper's "own room" at the top of the core
    /// list, generalized); float every shard otherwise.
    #[default]
    Auto,
    /// Never pin; shards float under the OS scheduler.
    Unpinned,
    /// Pin shard `i` to core `base + i`. Out-of-range cores degrade to a
    /// recorded pin failure, not an error (this box may be smaller than
    /// the deployment target).
    Base(usize),
}

/// Where — and how often — a tier exposes itself to the outside world.
///
/// Passed to [`NgmConfig::with_observer`]; consumed by
/// [`crate::api::Ngm::start_observer`], which binds the HTTP endpoint
/// (`/metrics`, `/spans`, `/blackbox`, `/healthz`, `/readyz`) and — when
/// `record_path` is set — starts the recorder thread, which appends one
/// flight-recorder frame per interval. The endpoints read the tier's
/// counters at request time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserverConfig {
    /// Listen address for the HTTP endpoint (e.g. `"127.0.0.1:9464"`;
    /// port 0 binds an ephemeral port, readable from the running
    /// observer).
    pub addr: String,
    /// JSONL flight-recording path; `None` serves endpoints without
    /// recording.
    pub record_path: Option<std::path::PathBuf>,
    /// Spacing between recorded frames — the time-base of the flight
    /// recording. Unused without one. Sub-millisecond values are clamped
    /// to 1ms by the recorder.
    pub scrape_interval: Duration,
}

impl ObserverConfig {
    /// An observer on `addr` with no recording (a recording, once set,
    /// takes a frame every 250ms).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        ObserverConfig {
            addr: addr.into(),
            record_path: None,
            scrape_interval: Duration::from_millis(250),
        }
    }

    /// Enables the JSONL flight recording at `path`.
    #[must_use]
    pub fn with_recording(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.record_path = Some(path.into());
        self
    }

    /// Sets the recording interval.
    #[must_use]
    pub fn with_scrape_interval(mut self, interval: Duration) -> Self {
        self.scrape_interval = interval;
        self
    }
}

impl Default for ObserverConfig {
    /// Loopback on an ephemeral port: safe to start anywhere, never
    /// externally reachable unless the address says so.
    fn default() -> Self {
        Self::new("127.0.0.1:0")
    }
}

/// Why [`NgmConfig::build`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NgmError {
    /// `shards` was `0` or above [`MAX_SHARDS`].
    InvalidShards {
        /// The rejected shard count.
        requested: usize,
    },
    /// `batch_size` was `0` or above [`MAX_BATCH`].
    InvalidBatch {
        /// The rejected batch size.
        requested: usize,
    },
    /// `flush_threshold` was `0` or above [`MAX_BATCH`].
    InvalidFlush {
        /// The rejected flush threshold.
        requested: usize,
    },
    /// A shard's service thread could not be spawned.
    Spawn(ServiceError),
    /// Never constructed. Survives only until ROADMAP item 1(b) deletes
    /// it, because `benchmark/` still matches on it.
    WouldBlock,
    /// A heap-layer failure surfaced through [`crate::SubmissionQueue`].
    Alloc(AllocError),
}

impl std::fmt::Display for NgmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NgmError::InvalidShards { requested } => {
                write!(f, "shard count {requested} not in 1..={MAX_SHARDS}")
            }
            NgmError::InvalidBatch { requested } => {
                write!(f, "batch size {requested} not in 1..={MAX_BATCH}")
            }
            NgmError::InvalidFlush { requested } => {
                write!(f, "flush threshold {requested} not in 1..={MAX_BATCH}")
            }
            NgmError::Spawn(e) => write!(f, "failed to start a service shard: {e}"),
            NgmError::WouldBlock => write!(f, "allocation would block"),
            NgmError::Alloc(e) => write!(f, "heap error: {e}"),
        }
    }
}

impl std::error::Error for NgmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NgmError::Spawn(e) => Some(e),
            NgmError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

/// Configuration for the whole allocator, shards included.
///
/// What is not here is not settable. Every client's free ring to a
/// shard is [`ngm_offload::DEFAULT_RING_CELLS`] cells (128 KiB), every
/// shard's thread runs from `build()` until shutdown, and every tier —
/// the one the `#[global_allocator]` hook starts included — records each
/// failure edge (deadline expiry, shard failover, degradation to the
/// inline fallback) as one `Failure` trace event in its control ring
/// ([`crate::api::Ngm::failures`]).
///
/// ```
/// use ngm_core::{CorePlacement, NgmConfig};
///
/// let ngm = NgmConfig::new()
///     .with_shards(2)
///     .with_batch(16, 8)
///     .with_placement(CorePlacement::Unpinned)
///     .build()
///     .expect("valid config");
/// # ngm.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct NgmConfig {
    /// Number of service shards, each a dedicated service thread owning
    /// its own [`ngm_heap::SegregatedHeap`] (`1..=`[`MAX_SHARDS`]).
    pub shards: usize,
    /// Core placement policy for the service threads.
    pub placement: CorePlacement,
    /// Per-thread event-trace ring capacity; `0` (the default) disables
    /// tracing entirely, leaving only the always-on latency histograms.
    pub trace_capacity: usize,
    /// Blocks fetched per magazine refill (`1..=`[`MAX_BATCH`]; the
    /// default is [`MAX_BATCH`], 128). Every small alloc pops its class
    /// magazine, so one round trip is paid per `batch_size` allocs — or
    /// per 64 KiB heap page of blocks, for the classes above 512 bytes
    /// where that is fewer; `1` is the paper's per-call handshake — a
    /// refill of one block per alloc — through the same path. A refill
    /// costs about the same whatever it carries, so values ≥ 8 amortize
    /// the §4.1 handshake past break-even and the default brings it to
    /// about half the paper's 67 cycles per malloc.
    pub batch_size: usize,
    /// Small-block frees buffered client-side before one batched flush
    /// post (`1..=`[`MAX_BATCH`]; the default is [`MAX_BATCH`]). Every
    /// small free fills the buffer; `1` flushes each free as its own
    /// post.
    pub flush_threshold: usize,
    /// Enables PMU profiling (off by default): each service loop and one
    /// handle per client thread wrap their lifetimes in a
    /// [`ngm_pmu::PmuSession`], attributing cycles and cache/TLB misses
    /// to the service cores versus the app cores.
    pub profile: bool,
    /// Per-request deadline for every blocking primitive (slot waits,
    /// free-ring retries). A request that exceeds it surfaces a typed
    /// error and degrades (reroute, then inline fallback) instead of
    /// hanging. Defaults to [`ngm_offload::DEFAULT_DEADLINE`]; `None`
    /// restores unbounded waits.
    pub deadline: Option<Duration>,
    /// Live-observability endpoint + flight recorder; `None` (the
    /// default) keeps the tier observable only in-process. When set,
    /// [`crate::api::Ngm::start_observer`] serves it. This is the one
    /// non-`Copy` knob — the `const` constructor leaves it `None`, so
    /// `#[global_allocator]` statics are unaffected.
    pub observer: Option<ObserverConfig>,
}

impl NgmConfig {
    /// The `const` default configuration: one shard, auto placement, the
    /// handshake amortised over full magazines and free buffers
    /// (`with_batch(MAX_BATCH, MAX_BATCH)`), no tracing or profiling.
    pub const fn new() -> Self {
        NgmConfig {
            shards: 1,
            placement: CorePlacement::Auto,
            trace_capacity: 0,
            batch_size: MAX_BATCH,
            flush_threshold: MAX_BATCH,
            profile: false,
            deadline: Some(ngm_offload::DEFAULT_DEADLINE),
            observer: None,
        }
    }

    /// Attaches a live-observability endpoint (and optionally a flight
    /// recording) to the tier; serve it with
    /// [`crate::api::Ngm::start_observer`] after `build()`. Not `const`:
    /// [`ObserverConfig`] carries owned strings, which a static
    /// initializer cannot build — and a global allocator should not be
    /// running an HTTP server anyway.
    #[must_use]
    pub fn with_observer(mut self, observer: ObserverConfig) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Sets the number of service shards.
    pub const fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the core placement policy.
    pub const fn with_placement(mut self, placement: CorePlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the per-thread event-trace ring capacity (0 disables).
    pub const fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets both batching knobs: magazine refill size and free-flush
    /// threshold. `with_batch(1, 1)` is the paper's synchronous protocol:
    /// one round trip per small alloc, one post per small free.
    pub const fn with_batch(mut self, batch_size: usize, flush_threshold: usize) -> Self {
        self.batch_size = batch_size;
        self.flush_threshold = flush_threshold;
        self
    }

    /// Ignores `limit` and returns `self` unchanged. Survives only until
    /// ROADMAP item 1(b) deletes it, because `benchmark/` still calls it.
    pub const fn with_inflight_limit(self, _limit: usize) -> Self {
        self
    }

    /// Enables or disables PMU profiling.
    pub const fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Sets the per-request deadline (`None` restores unbounded waits).
    pub const fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Checks every field without building anything.
    ///
    /// # Errors
    ///
    /// The first [`NgmError`] a field violates, in declaration order.
    pub const fn validate(&self) -> Result<(), NgmError> {
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return Err(NgmError::InvalidShards {
                requested: self.shards,
            });
        }
        if self.batch_size == 0 || self.batch_size > MAX_BATCH {
            return Err(NgmError::InvalidBatch {
                requested: self.batch_size,
            });
        }
        if self.flush_threshold == 0 || self.flush_threshold > MAX_BATCH {
            return Err(NgmError::InvalidFlush {
                requested: self.flush_threshold,
            });
        }
        Ok(())
    }

    /// Clamps every field into its valid range, so `build` cannot fail
    /// validation. Contexts that cannot surface a `Result` — the
    /// `#[global_allocator]` path — go through this instead of aborting
    /// the process on a bad knob.
    pub const fn sanitized(mut self) -> Self {
        self.shards = clamp(self.shards, 1, MAX_SHARDS);
        self.batch_size = clamp(self.batch_size, 1, MAX_BATCH);
        self.flush_threshold = clamp(self.flush_threshold, 1, MAX_BATCH);
        self
    }

    /// Validates, then starts the allocator: `shards` pinned service
    /// threads, each owning its own segregated heap.
    ///
    /// # Errors
    ///
    /// A validation [`NgmError`], or [`NgmError::Spawn`] if the OS
    /// refuses a service thread.
    pub fn build(self) -> Result<crate::api::Ngm, NgmError> {
        self.validate()?;
        crate::api::Ngm::from_config(self)
    }
}

impl Default for NgmConfig {
    fn default() -> Self {
        Self::new()
    }
}

const fn clamp(v: usize, lo: usize, hi: usize) -> usize {
    if v < lo {
        lo
    } else if v > hi {
        hi
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(NgmConfig::new().validate(), Ok(()));
        NgmConfig::default().validate().unwrap();
    }

    #[test]
    fn const_construction_compiles() {
        // The whole chain must be usable in a static initializer.
        const CFG: NgmConfig = NgmConfig::new()
            .with_shards(4)
            .with_batch(16, 8)
            .with_placement(CorePlacement::Unpinned)
            .with_trace_capacity(0)
            .with_profile(false)
            .with_deadline(Some(Duration::from_millis(100)));
        assert_eq!(CFG.shards, 4);
        assert_eq!(CFG.batch_size, 16);
        assert_eq!(CFG.validate(), Ok(()));
    }

    #[test]
    fn invalid_fields_are_typed_errors() {
        assert_eq!(
            NgmConfig::new().with_shards(0).validate(),
            Err(NgmError::InvalidShards { requested: 0 })
        );
        assert_eq!(
            NgmConfig::new().with_shards(MAX_SHARDS + 1).validate(),
            Err(NgmError::InvalidShards {
                requested: MAX_SHARDS + 1
            })
        );
        assert_eq!(
            NgmConfig::new().with_batch(0, 1).validate(),
            Err(NgmError::InvalidBatch { requested: 0 })
        );
        assert_eq!(
            NgmConfig::new().with_batch(1, MAX_BATCH + 1).validate(),
            Err(NgmError::InvalidFlush {
                requested: MAX_BATCH + 1
            })
        );
    }

    #[test]
    fn observer_config_chains_and_clones() {
        let cfg = NgmConfig::new().with_observer(
            ObserverConfig::new("127.0.0.1:0")
                .with_recording("/tmp/ngm-flight.jsonl")
                .with_scrape_interval(Duration::from_millis(5)),
        );
        let obs = cfg.observer.as_ref().expect("observer set");
        assert_eq!(obs.addr, "127.0.0.1:0");
        assert_eq!(
            obs.record_path.as_deref(),
            Some(std::path::Path::new("/tmp/ngm-flight.jsonl"))
        );
        assert_eq!(obs.scrape_interval, Duration::from_millis(5));
        // The config is Clone (no longer Copy): both copies agree.
        let cloned = cfg.clone();
        assert_eq!(cloned.observer, cfg.observer);
        assert_eq!(cfg.validate(), Ok(()));
        // Sanitizing leaves the observer untouched.
        assert_eq!(cfg.sanitized().observer.unwrap().addr, "127.0.0.1:0");
        assert_eq!(ObserverConfig::default().addr, "127.0.0.1:0");
    }

    #[test]
    fn build_surfaces_validation_errors() {
        let err = NgmConfig::new().with_shards(0).build().unwrap_err();
        assert_eq!(err, NgmError::InvalidShards { requested: 0 });
        assert!(err.to_string().contains("shard count"));
    }

    #[test]
    fn sanitized_clamps_everything_into_range() {
        let cfg = NgmConfig::new()
            .with_shards(99)
            .with_batch(0, 1000)
            .sanitized();
        assert_eq!(cfg.shards, MAX_SHARDS);
        assert_eq!(cfg.batch_size, 1);
        assert_eq!(cfg.flush_threshold, MAX_BATCH);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn owner_base_leaves_room_for_every_shard() {
        // The shard index lives in the low byte of the owner id, and 0xff
        // is reserved for the fallback heap.
        const { assert!(MAX_SHARDS < 0xff) }
        assert_eq!(OWNER_BASE & 0xff, 0);
        assert_eq!(FALLBACK_OWNER & 0xff, 0xff);
        assert!(FALLBACK_OWNER.wrapping_sub(OWNER_BASE) as usize >= MAX_SHARDS);
    }
}
