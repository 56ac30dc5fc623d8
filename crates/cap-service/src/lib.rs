//! # cap-service — a resilient prediction service
//!
//! The paper's predictors run here as a long-lived, sharded
//! **service**: prediction/train requests come in over an in-process
//! [`service::ServiceHandle`] or the length-prefixed TCP protocol in
//! [`net`], are routed by load IP to one of N shards (a worker's state
//! behind its own mutex), are served on the caller's own thread, and
//! are answered under explicit robustness machinery:
//!
//! * **Backpressure** — each shard counts the callers waiting for its
//!   lock; admission control sheds with a structured
//!   [`error::ServiceError::Shed`] once `queue_capacity` are waiting,
//!   instead of queueing unboundedly ([`service`]).
//! * **Deadline budgets** — a request may carry a budget; it is checked
//!   once the caller holds its shard (`queued` stage) and after backend
//!   work (`backend` stage), and expiry is accounted, never silently
//!   ignored.
//! * **Circuit breakers** — every backend slot sits behind a
//!   closed/open/half-open [`breaker::CircuitBreaker`] with seeded,
//!   jittered probe scheduling.
//! * **Graceful degradation** — the [`ladder::Ladder`] steps each
//!   shard down hybrid → stride-only → bypass under breaker trips or
//!   queue pressure and climbs back one rung at a time after sustained
//!   health — the service-granularity analogue of the paper's per-load
//!   confidence fallback, with the same bias: a wrong (late, failing)
//!   answer costs more than no answer.
//! * **Warm restarts** — [`service::Service::shutdown`] drains under a
//!   bounded deadline and emits a `cap-snapshot` archive from which
//!   [`service::Service::start_restored`] resumes with bit-identical
//!   predictor state; [`service::Service::restore_or_cold`] degrades a
//!   corrupt snapshot to a cold start, never a dead service.
//!
//! Chaos comes from `cap_faults::service`: seeded plans of worker
//! panics, latency spikes, and queue stalls that the soak tests drive
//! through the whole stack. The load-bearing invariant — **every
//! accepted request terminates in exactly one reply** — is what those
//! tests prove.
//!
//! ## Quick start
//!
//! ```
//! use cap_service::prelude::*;
//! use std::time::Duration;
//!
//! let service = Service::start(ServiceConfig::default());
//! let handle = service.handle();
//! for i in 0..100u64 {
//!     let r = handle.call(
//!         Request::Observe { ip: 0x400, offset: 0, ghr: 0, actual: 0x1000 + i * 8 },
//!         Some(Duration::from_millis(100)),
//!     );
//!     assert!(r.is_ok());
//! }
//! let report = service.shutdown(Duration::from_millis(500));
//! let warm = Service::start_restored(ServiceConfig::default(), &report.snapshot).unwrap();
//! let _ = warm.shutdown(Duration::from_millis(100));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod breaker;
pub mod error;
pub mod ladder;
pub mod net;
pub mod service;
pub mod wire;

/// Registry metric names recorded by the service when an
/// [`cap_obs::Obs`] is attached via
/// [`service::ServiceConfig`]`::obs`. Counter names mirror the legacy
/// [`service::ServiceStats`] fields one for one, which is what lets the
/// stats view be reconciled against the registry.
pub mod names {
    /// Requests admitted past admission control.
    pub const ACCEPTED: &str = "service.accepted";
    /// Requests shed by backpressure (queue full).
    pub const SHED: &str = "service.shed";
    /// Requests rejected because the service was draining.
    pub const REJECTED_SHUTDOWN: &str = "service.rejected_shutdown";
    /// Requests served to completion by a worker.
    pub const SERVED: &str = "service.served";
    /// Deadline expiries observed at dequeue ("queued" stage).
    pub const DEADLINE_QUEUED: &str = "service.deadline.queued";
    /// Deadline expiries observed after backend work ("backend" stage).
    pub const DEADLINE_BACKEND: &str = "service.deadline.backend";
    /// Backend panics contained by the sandbox.
    pub const BACKEND_PANIC: &str = "service.backend_panic";
    /// Injected latency faults that fired.
    pub const FAULT_LATENCY: &str = "service.fault.latency";
    /// Injected queue-stall faults that fired.
    pub const FAULT_STALL: &str = "service.fault.stall";
    /// Breaker transitions into `Open`.
    pub const BREAKER_OPEN: &str = "service.breaker.open";
    /// Breaker transitions `Open` -> `HalfOpen` (probe window).
    pub const BREAKER_HALF_OPEN: &str = "service.breaker.half_open";
    /// Breaker transitions `HalfOpen` -> `Closed` (recovery).
    pub const BREAKER_CLOSE: &str = "service.breaker.close";
    /// Degradation-ladder steps down (towards bypass).
    pub const LADDER_DEMOTE: &str = "service.ladder.demote";
    /// Degradation-ladder climbs up (towards hybrid).
    pub const LADDER_PROMOTE: &str = "service.ladder.promote";
    /// Warm restarts that found a snapshot but could not decode it and
    /// degraded to a cold start (state silently lost without this).
    pub const SNAPSHOT_DEGRADED_COLD: &str = "service.snapshot.degraded_cold";
    /// Per-rung service latency histograms (microseconds), indexed by
    /// [`crate::ladder::Rung::index`].
    pub const LATENCY_BY_RUNG: [&str; 3] = [
        "service.latency.hybrid",
        "service.latency.stride_only",
        "service.latency.bypass",
    ];
}

/// Commonly used items, for glob import in binaries and tests.
pub mod prelude {
    pub use crate::backend::{
        registered_names, BackendDescriptor, BackendKind, BackendParseError, BACKEND_REGISTRY,
    };
    pub use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
    pub use crate::error::ServiceError;
    pub use crate::ladder::{Ladder, LadderConfig, LadderInputs, Rung};
    pub use crate::net::{debug_stats_renderer, ObsExporter, StatsRenderer, TcpClient, TcpServer};
    pub use crate::service::{
        Request, Response, Service, ServiceConfig, ServiceHandle, ServiceStats, ShutdownReport,
        WorkerStats,
    };
    pub use crate::wire::{WireRequest, WireResponse};
    pub use cap_obs::{Classify, ErrorClass, Obs};
}
