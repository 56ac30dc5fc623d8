//! The structured error surface of the service.
//!
//! Every request submitted to the service terminates in exactly one of
//! two ways: a [`crate::service::Response`] or a [`ServiceError`]. There
//! is no third outcome — no silent drop, no hang — and the chaos soak
//! test holds the service to that contract under injected worker panics,
//! latency spikes, and queue stalls.

use cap_obs::{Classify, ErrorClass};
use std::fmt;
use std::time::Duration;

/// Why a request did not produce a normal response.
///
/// Each variant is *actionable* for a caller: shed and pressure errors
/// say "back off and retry", deadline errors say "your budget was too
/// small or the service too slow", shutdown errors say "stop sending".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: `capacity` callers were
    /// already waiting for its shard. This is the explicit backpressure
    /// signal — the caller should slow down or retry later.
    Shed {
        /// Queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline budget expired before the service
    /// finished it. `stage` names where the budget ran out.
    DeadlineExceeded {
        /// Pipeline stage that observed the expiry (`"queued"` when the
        /// budget ran out waiting for the shard, `"backend"` after
        /// backend work).
        stage: &'static str,
        /// The budget the request carried.
        budget: Duration,
    },
    /// The service is draining or has shut down; no new work is
    /// accepted. Admitted requests still waiting for their shard past
    /// the drain deadline also get this error rather than vanishing.
    ShuttingDown,
    /// A backend call panicked. The panic was contained, the breaker
    /// for that component recorded the failure, and the request was
    /// answered with this error.
    BackendPanicked {
        /// Name of the backend component that panicked, or `"service"`
        /// for a panic outside the backend sandbox.
        component: &'static str,
    },
    /// No reply frame arrived within a TCP client's read timeout, so a
    /// caller never blocks forever on a wedged or unreachable peer.
    ReplyTimeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The service snapshot could not be decoded (warm restart refused
    /// it). Carries the underlying decode failure rendered as text.
    BadSnapshot(String),
    /// A wire-protocol frame was malformed.
    Protocol(String),
    /// A routed serve frame carried a stale routing epoch: this node is
    /// fenced at `fence` and refuses to train under anything else. The
    /// request was rejected *before* touching the backend, so a resend
    /// under the current epoch is exactly-once safe.
    Fenced {
        /// The epoch this node is fenced at.
        fence: u64,
        /// The stale epoch the frame carried.
        sent: u64,
    },
}

impl ServiceError {
    /// Stable wire code for the error class (used by the TCP protocol).
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ServiceError::Shed { .. } => 1,
            ServiceError::DeadlineExceeded { .. } => 2,
            ServiceError::ShuttingDown => 3,
            // 4 is retired: it named a lost worker thread, and the
            // service has none. Never reuse it.
            ServiceError::BackendPanicked { .. } => 5,
            ServiceError::ReplyTimeout { .. } => 6,
            ServiceError::BadSnapshot(_) => 7,
            ServiceError::Protocol(_) => 8,
            ServiceError::Fenced { .. } => 9,
        }
    }

    /// Stable wire code of [`ServiceError::Fenced`], for callers
    /// classifying structured errors that crossed the wire.
    pub const FENCED_CODE: u8 = 9;

    /// True for errors a caller may simply retry after backing off
    /// (shed, deadline, reply-timeout, contained panic); false for
    /// terminal ones. This is a view over [`Classify::error_class`].
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.error_class().is_retryable()
    }
}

impl Classify for ServiceError {
    fn error_class(&self) -> ErrorClass {
        match self {
            ServiceError::Shed { .. } => ErrorClass::Shed,
            ServiceError::DeadlineExceeded { .. }
            | ServiceError::ReplyTimeout { .. }
            | ServiceError::BackendPanicked { .. } => ErrorClass::Transient,
            // `Fenced` is permanent *for the frame as sent*: the same
            // stale epoch will bounce forever. The router re-routes
            // under the current epoch instead of blind-resending.
            ServiceError::ShuttingDown
            | ServiceError::Protocol(_)
            | ServiceError::Fenced { .. } => ErrorClass::Permanent,
            ServiceError::BadSnapshot(_) => ErrorClass::Corrupt,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Shed { capacity } => {
                write!(f, "request shed: shard queue full (capacity {capacity})")
            }
            ServiceError::DeadlineExceeded { stage, budget } => {
                write!(
                    f,
                    "deadline exceeded in stage '{stage}' (budget {budget:?})"
                )
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::BackendPanicked { component } => {
                write!(f, "backend '{component}' panicked (contained)")
            }
            ServiceError::ReplyTimeout { waited } => {
                write!(f, "no reply within {waited:?}")
            }
            ServiceError::BadSnapshot(why) => write!(f, "bad service snapshot: {why}"),
            ServiceError::Protocol(why) => write!(f, "protocol error: {why}"),
            ServiceError::Fenced { fence, sent } => {
                write!(
                    f,
                    "stale routing epoch {sent}: node is fenced at epoch {fence}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every variant.
    fn every_variant() -> [ServiceError; 8] {
        [
            ServiceError::Shed { capacity: 8 },
            ServiceError::DeadlineExceeded {
                stage: "queued",
                budget: Duration::from_millis(1),
            },
            ServiceError::ShuttingDown,
            ServiceError::BackendPanicked {
                component: "hybrid",
            },
            ServiceError::ReplyTimeout {
                waited: Duration::from_secs(1),
            },
            ServiceError::BadSnapshot("x".into()),
            ServiceError::Protocol("y".into()),
            ServiceError::Fenced { fence: 2, sent: 1 },
        ]
    }

    #[test]
    fn codes_are_distinct() {
        let all = every_variant();
        let mut codes: Vec<u8> = all.iter().map(ServiceError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn retired_error_code_4_stays_unclaimed() {
        // Code 4 named a lost worker thread. A peer built before its
        // retirement may still send it, so no variant may take it over.
        for e in every_variant() {
            assert_ne!(e.code(), 4, "{e}");
        }
    }

    #[test]
    fn retryability_classifies() {
        assert!(ServiceError::Shed { capacity: 1 }.is_retryable());
        assert!(!ServiceError::ShuttingDown.is_retryable());
        assert!(!ServiceError::Protocol("p".into()).is_retryable());
    }

    #[test]
    fn error_classes_span_the_taxonomy() {
        assert_eq!(
            ServiceError::Shed { capacity: 1 }.error_class(),
            ErrorClass::Shed
        );
        assert_eq!(
            ServiceError::ReplyTimeout {
                waited: Duration::from_secs(1)
            }
            .error_class(),
            ErrorClass::Transient
        );
        assert_eq!(
            ServiceError::ShuttingDown.error_class(),
            ErrorClass::Permanent
        );
        assert_eq!(
            ServiceError::BadSnapshot("x".into()).error_class(),
            ErrorClass::Corrupt
        );
        // The legacy predicate and the class-derived one agree on every
        // variant.
        for e in every_variant() {
            assert_eq!(e.is_retryable(), e.error_class().is_retryable(), "{e}");
        }
        assert_eq!(
            ServiceError::Fenced { fence: 2, sent: 1 }.code(),
            ServiceError::FENCED_CODE
        );
    }

    #[test]
    fn display_names_the_cause() {
        let e = ServiceError::DeadlineExceeded {
            stage: "backend",
            budget: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("backend"));
        assert!(ServiceError::Shed { capacity: 64 }
            .to_string()
            .contains("64"));
    }
}
