//! Typed errors for the offload runtime.
//!
//! Before the sharded service tier, every failure on the client/service
//! boundary was a `panic!` or `expect` — acceptable with one service
//! thread whose death was fatal anyway, but not with N shards where the
//! correct response to a dead shard is to *route around it*. These errors
//! surface through the `try_*` methods and the `Result`-returning
//! constructors so higher layers (the `NgmConfig` API) can degrade
//! gracefully instead of unwinding. None of them means "busy, try
//! again": a synchronous call is published, awaited and collected in one
//! `try_call`, so no request is ever in flight between calls.

use std::fmt;
use std::time::Duration;

/// Why an offload-runtime operation could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The service thread has stopped: the message ring is closed and no
    /// request will ever be answered.
    ServiceStopped,
    /// The service thread panicked; its service state is unrecoverable.
    ServicePanicked,
    /// The OS refused to spawn the service thread.
    SpawnFailed,
    /// `shutdown`/`try_shutdown` was called on a runtime that already
    /// joined its thread.
    AlreadyShutDown,
    /// The operation's deadline budget elapsed before the shard answered:
    /// the shard is wedged or saturated, not (necessarily) dead. Callers
    /// should reroute to another shard or degrade to the inline fallback
    /// path rather than write the shard off.
    Deadline {
        /// The shard the request was addressed to.
        shard: usize,
        /// How long the caller waited before giving up.
        waited: Duration,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::ServiceStopped => write!(f, "offload service thread has stopped"),
            ServiceError::ServicePanicked => write!(f, "offload service thread panicked"),
            ServiceError::SpawnFailed => write!(f, "failed to spawn offload service thread"),
            ServiceError::AlreadyShutDown => write!(f, "offload runtime was already shut down"),
            ServiceError::Deadline { shard, waited } => write!(
                f,
                "request to shard {shard} exceeded its deadline after {waited:?}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_distinctly() {
        let all = [
            ServiceError::ServiceStopped,
            ServiceError::ServicePanicked,
            ServiceError::SpawnFailed,
            ServiceError::AlreadyShutDown,
            ServiceError::Deadline {
                shard: 3,
                waited: Duration::from_millis(250),
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in all {
            assert!(seen.insert(e.to_string()), "duplicate message for {e:?}");
        }
    }
}
