//! Cluster-level errors.
//!
//! Wire codes **32 and up** belong to the cluster layer; codes below 32
//! are [`ServiceError`] codes passed through from a node untouched, so
//! a client can always tell "the node said no" from "the fleet said
//! no". The split matters for accounting: [`ClusterError::is_failover`]
//! is the exact predicate the soak's request-accounting identity uses
//! for its `failover_attributed` bucket.

use cap_service::error::ServiceError;

/// *Why* a node was unavailable — the router's partition-handling
/// logic keys off this: a refused connect or an open breaker reads as
/// "node dead", while a read **timeout** on an established connection
/// is the signature of a link swallowing frames (a partition), counted
/// separately as `cluster.partition_suspected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnavailableKind {
    /// The TCP connect itself was refused or failed.
    Connect,
    /// An established connection went idle past the read timeout —
    /// the partition signature. The node may be alive on the far side.
    Timeout,
    /// The connection died mid-call (reset, torn frame, mismatched
    /// reply). The request may have trained the node before the reply
    /// was lost.
    Transport,
    /// The router's breaker for this node is open or half-open-busy;
    /// no call was attempted.
    Breaker,
}

impl UnavailableKind {
    /// Stable lowercase name for logs and counters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            UnavailableKind::Connect => "connect",
            UnavailableKind::Timeout => "timeout",
            UnavailableKind::Transport => "transport",
            UnavailableKind::Breaker => "breaker",
        }
    }
}

/// Everything that can go wrong with a routed request or a fleet
/// control operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The owning node cannot take traffic: its breaker is open, its
    /// connection died mid-call, or it refused the connect. Retrying
    /// is safe only for connect-level failures; a mid-call transport
    /// death may have trained the node before the reply was lost.
    NodeUnavailable {
        /// Fleet index of the node.
        node: usize,
        /// Structured failure class (see [`UnavailableKind`]).
        kind: UnavailableKind,
        /// Human-readable cause (breaker state or transport error).
        reason: String,
    },
    /// The owning node is draining for migration; the request was
    /// **not** forwarded, so retrying after the epoch flip is safe and
    /// cannot double-train.
    Migrating {
        /// Fleet index of the draining node.
        node: usize,
    },
    /// No shipped replica exists for a node that needs promotion.
    NoReplica {
        /// Fleet index of the node.
        node: usize,
    },
    /// A differential-twin proof failed: the promoted node's state does
    /// not match the shipped archive byte for byte.
    DriftDetected {
        /// Fleet index of the promoted node.
        node: usize,
        /// Archive length the proof expected.
        expected_len: usize,
        /// Archive length the twin produced.
        got_len: usize,
        /// First byte offset that differs, if lengths matched.
        first_diff: Option<usize>,
    },
    /// A node answered with a structured [`ServiceError`]; `code` is
    /// its original wire code (always < 32).
    Remote {
        /// Fleet index of the answering node.
        node: usize,
        /// Original [`ServiceError::code`].
        code: u8,
        /// The node's error message.
        message: String,
    },
    /// The fleet description itself is unusable (no nodes, bad index).
    BadTopology(String),
    /// The node refused the forward because the frame's routing epoch
    /// was stale relative to its fence — the request was rejected
    /// *before* any training, so retrying under the current epoch is
    /// exactly-once safe. The router re-fences the node in passing, so
    /// one retry normally suffices.
    EpochFenced {
        /// Fleet index of the refusing node.
        node: usize,
    },
}

impl ClusterError {
    /// Stable wire/reporting code. Cluster-originated errors are ≥ 32;
    /// [`ClusterError::Remote`] keeps the node's own code.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ClusterError::Remote { code, .. } => *code,
            ClusterError::NodeUnavailable { .. } => 32,
            ClusterError::Migrating { .. } => 33,
            ClusterError::NoReplica { .. } => 34,
            ClusterError::DriftDetected { .. } => 35,
            ClusterError::BadTopology(_) => 36,
            ClusterError::EpochFenced { .. } => 37,
        }
    }

    /// True when the failure is attributable to node loss or planned
    /// node movement — the `failover_attributed` accounting bucket.
    #[must_use]
    pub fn is_failover(&self) -> bool {
        matches!(
            self,
            ClusterError::NodeUnavailable { .. }
                | ClusterError::Migrating { .. }
                | ClusterError::EpochFenced { .. }
        )
    }

    /// True when the failure carries the partition signature: an
    /// established link going silent rather than dying outright.
    #[must_use]
    pub fn is_partition_suspect(&self) -> bool {
        matches!(
            self,
            ClusterError::NodeUnavailable {
                kind: UnavailableKind::Timeout,
                ..
            }
        )
    }

    /// True when the node answered a structured shed (a shard's queue
    /// was full) — the `shed` accounting bucket.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            ClusterError::Remote { code, .. }
                if *code == ServiceError::Shed { capacity: 0 }.code()
        )
    }

    /// True when a retry cannot double-train a predictor: the request
    /// provably never reached a backend. [`ClusterError::Migrating`]
    /// (gated before forwarding) and [`ClusterError::EpochFenced`]
    /// (rejected by the node before training) qualify — everything
    /// else may have been forwarded.
    #[must_use]
    pub fn retry_is_exactly_once(&self) -> bool {
        matches!(
            self,
            ClusterError::Migrating { .. } | ClusterError::EpochFenced { .. }
        )
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NodeUnavailable { node, kind, reason } => {
                write!(f, "node {node} unavailable ({}): {reason}", kind.name())
            }
            ClusterError::Migrating { node } => {
                write!(
                    f,
                    "node {node} is draining for migration; retry after the epoch flip"
                )
            }
            ClusterError::NoReplica { node } => {
                write!(f, "node {node} has no shipped replica to promote")
            }
            ClusterError::DriftDetected {
                node,
                expected_len,
                got_len,
                first_diff,
            } => match first_diff {
                Some(at) => write!(
                    f,
                    "node {node} drifted: archives differ at byte {at} (len {expected_len})"
                ),
                None => write!(
                    f,
                    "node {node} drifted: archive length {got_len}, expected {expected_len}"
                ),
            },
            ClusterError::Remote {
                node,
                code,
                message,
            } => {
                write!(f, "node {node} error {code}: {message}")
            }
            ClusterError::BadTopology(why) => write!(f, "bad topology: {why}"),
            ClusterError::EpochFenced { node } => {
                write!(f, "node {node} fenced the forward: stale routing epoch; retry under the current epoch")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_codes_never_collide_with_service_codes() {
        // Service codes are 1..=8 today; anything the cluster mints must
        // sit at 32+ so a mixed log stream stays unambiguous.
        let minted = [
            ClusterError::NodeUnavailable {
                node: 0,
                kind: UnavailableKind::Transport,
                reason: String::new(),
            },
            ClusterError::Migrating { node: 0 },
            ClusterError::NoReplica { node: 0 },
            ClusterError::DriftDetected {
                node: 0,
                expected_len: 0,
                got_len: 0,
                first_diff: None,
            },
            ClusterError::BadTopology(String::new()),
            ClusterError::EpochFenced { node: 0 },
        ];
        for e in &minted {
            assert!(e.code() >= 32, "{e:?} minted code {}", e.code());
        }
        // Passthrough keeps the node's own code.
        let remote = ClusterError::Remote {
            node: 1,
            code: 1,
            message: "shed".into(),
        };
        assert_eq!(remote.code(), 1);
        assert!(remote.is_shed());
        assert!(!remote.is_failover());
    }

    #[test]
    fn only_gated_or_fenced_rejections_are_exactly_once_retryable() {
        assert!(ClusterError::Migrating { node: 2 }.retry_is_exactly_once());
        assert!(ClusterError::EpochFenced { node: 2 }.retry_is_exactly_once());
        assert!(!ClusterError::NodeUnavailable {
            node: 2,
            kind: UnavailableKind::Transport,
            reason: "reset".into()
        }
        .retry_is_exactly_once());
    }

    #[test]
    fn only_timeouts_suggest_a_partition() {
        let timeout = ClusterError::NodeUnavailable {
            node: 1,
            kind: UnavailableKind::Timeout,
            reason: "no reply within 100ms".into(),
        };
        assert!(timeout.is_partition_suspect());
        assert!(timeout.is_failover());
        for kind in [
            UnavailableKind::Connect,
            UnavailableKind::Transport,
            UnavailableKind::Breaker,
        ] {
            let e = ClusterError::NodeUnavailable {
                node: 1,
                kind,
                reason: String::new(),
            };
            assert!(!e.is_partition_suspect(), "{kind:?}");
        }
        assert!(ClusterError::EpochFenced { node: 0 }.is_failover());
    }
}
