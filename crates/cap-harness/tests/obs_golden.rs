//! Golden-file tests for the telemetry export surfaces: the `CAPO`
//! wire frame and the JSON rendering must be **byte-stable** — same
//! registry contents, same bytes, forever. The registry here is
//! populated deterministically (fixed values, no wall-clock), so any
//! diff against the checked-in goldens is a wire-format or rendering
//! change, which is exactly what these tests exist to catch.
//!
//! To regenerate after an *intentional* format change:
//! `CAP_UPDATE_GOLDEN=1 cargo test -p cap-harness --test obs_golden`

use cap_harness::json::obs_snapshot_json;
use cap_obs::{EventKind, Registry, StatsSnapshot};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// A registry filled with fixed values spanning every metric type the
/// workspace records: service counters, a negative gauge, a latency
/// histogram crossing several log buckets, and trace events.
fn populated_registry() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    let obs = registry.obs();

    obs.count(cap_service::names::ACCEPTED, 1200);
    obs.count(cap_service::names::SERVED, 1180);
    obs.count(cap_service::names::SHED, 20);
    obs.count(cap_service::names::BREAKER_OPEN, 3);
    obs.count("pred.loads", 1180);
    obs.count("pred.predictions", 700);
    obs.count("pred.correct_predictions", 650);
    obs.count(cap_harness::names::CKPT_WRITTEN, 4);

    obs.count(cap_cluster::names::PARTITION_SUSPECTED, 11);
    obs.count(cap_cluster::names::REPLICA_PROMOTIONS, 1);
    obs.count(cap_cluster::names::EPOCH_FENCED, 2);
    obs.count(cap_cluster::names::REPLICA_PUSHED, 38);
    obs.count(cap_cluster::names::REPLICA_PUSH_FAIL, 1);
    obs.count(cap_cluster::names::RING_RESIZE, 1);
    obs.count(cap_cluster::names::FENCE_FAIL, 1);

    obs.gauge("uarch.cache.live", 512);
    obs.gauge("debug.drift", -7);
    // Per-node breaker state gauges: 0 = closed, 1 = open, 2 = half-open.
    obs.gauge(&cap_cluster::names::breaker_state_gauge(0), 0);
    obs.gauge(&cap_cluster::names::breaker_state_gauge(1), 1);
    obs.gauge(&cap_cluster::names::breaker_state_gauge(2), 2);

    for latency in [3u64, 5, 9, 17, 33, 65, 129, 257, 1025, 4097] {
        obs.record(cap_service::names::LATENCY_BY_RUNG[0], latency);
    }
    for micros in [850u64, 900, 1100, 1300] {
        obs.record(cap_harness::names::CKPT_ENCODE_US, micros);
    }

    obs.event("service.breaker.open", EventKind::Mark, 1);
    obs.event("ckpt.publish", EventKind::SpanBegin, 4);
    obs.event("ckpt.publish", EventKind::SpanEnd, 4);

    registry
}

fn check_golden(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var_os("CAP_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CAP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden ({} vs {} bytes); if the change \
         is intentional, regenerate with CAP_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}

#[test]
fn wire_frame_bytes_are_golden() {
    let snapshot = populated_registry().snapshot();
    let bytes = snapshot.encode();
    check_golden("obs_stats.capo", &bytes);
    // The golden bytes must also decode back to the identical snapshot —
    // stability without round-trip fidelity would be useless.
    assert_eq!(StatsSnapshot::decode(&bytes).unwrap(), snapshot);
}

#[test]
fn json_export_is_golden() {
    let snapshot = populated_registry().snapshot();
    let json = obs_snapshot_json(&snapshot).pretty();
    check_golden("obs_stats.json", json.as_bytes());
}

#[test]
fn two_identical_populations_export_identical_bytes() {
    // The byte-stability claim, proven from first principles: build the
    // registry twice, get the same frame and the same JSON.
    let a = populated_registry().snapshot();
    let b = populated_registry().snapshot();
    assert_eq!(a.encode(), b.encode());
    assert_eq!(
        obs_snapshot_json(&a).pretty(),
        obs_snapshot_json(&b).pretty()
    );
}
