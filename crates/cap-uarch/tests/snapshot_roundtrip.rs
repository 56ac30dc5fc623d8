//! Snapshot round-trip fidelity for the timing core.
//!
//! The core is snapshotted between two trace segments; the restored core
//! (and its restored address predictor) must replay the second segment to
//! bit-identical timing statistics, and re-encoding the restored state
//! must reproduce the original bytes.

use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_snapshot::{
    Restorable, SectionWriter, Snapshot, SnapshotArchive, SnapshotBuilder, SnapshotError,
};
use cap_trace::Trace;
use cap_uarch::capacity::{InOrderSlots, SlotTracker};
use cap_uarch::core::{CoreConfig, CoreStats, OooCore};
use cap_uarch::hierarchy::LatencyConfig;

fn traces() -> (Trace, Trace) {
    let catalog = cap_trace::suites::catalog();
    (catalog[0].generate(8_000), catalog[2].generate(8_000))
}

fn assert_stats_eq(a: &CoreStats, b: &CoreStats) {
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    assert_eq!(a.prefetches, b.prefetches);
    assert_eq!(a.l1_hit_rate.to_bits(), b.l1_hit_rate.to_bits());
    assert_eq!(a.pred, b.pred);
}

#[test]
fn core_resume_is_bit_identical() {
    let (first, second) = traces();

    // Uninterrupted: both segments through one core and predictor.
    let mut core = OooCore::new(CoreConfig::paper_default());
    let mut pred = HybridPredictor::new(HybridConfig::paper_default());
    core.run(&first, Some(&mut pred), 0);
    let reference = core.run(&second, Some(&mut pred), 0);

    // Interrupted: snapshot after the first segment, restore into fresh
    // objects, replay the second segment there.
    let mut core2 = OooCore::new(CoreConfig::paper_default());
    let mut pred2 = HybridPredictor::new(HybridConfig::paper_default());
    core2.run(&first, Some(&mut pred2), 0);

    let mut b = SnapshotBuilder::new();
    b.add("core", &core2);
    b.add("predictor", &pred2);
    let bytes = b.finish();
    let archive = SnapshotArchive::parse(&bytes).expect("own snapshot parses");
    let mut restored_core: OooCore = archive.restore("core").expect("core restores");
    let mut restored_pred: HybridPredictor =
        archive.restore("predictor").expect("predictor restores");

    let resumed = restored_core.run(&second, Some(&mut restored_pred), 0);
    assert_stats_eq(&resumed, &reference);
}

#[test]
fn core_reencode_is_identical() {
    let (first, _) = traces();
    let mut core = OooCore::new(CoreConfig::paper_default());
    core.run(&first, None, 0);
    let payload = core.to_payload();
    let restored = OooCore::from_payload(&payload, "core").expect("core payload restores");
    assert_eq!(restored.to_payload(), payload);
}

#[test]
fn hostile_core_payload_never_panics() {
    // Truncations at every prefix of a real core payload must yield a
    // structured error, not a panic.
    let (first, _) = traces();
    let mut core = OooCore::new(CoreConfig::paper_default());
    core.run(&first, None, 0);
    let payload = core.to_payload();
    let step = (payload.len() / 257).max(1);
    for cut in (0..payload.len()).step_by(step) {
        let err = OooCore::from_payload(&payload[..cut], "core");
        assert!(err.is_err(), "truncated payload at {cut} must not decode");
    }
}

/// The restore ceiling on a slot window's frontier.
const CEILING: u64 = 1 << 62;

/// A slot-tracker payload: width, frontier, then `(cycle, count)`
/// bookings.
fn slot_payload(width: u32, frontier: u64, bookings: &[(u64, u32)]) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u32(width);
    w.put_u64(frontier);
    w.put_len(bookings.len());
    for &(cycle, count) in bookings {
        w.put_u64(cycle);
        w.put_u32(count);
    }
    w.into_bytes()
}

fn assert_bad_value<T: std::fmt::Debug>(decoded: Result<T, SnapshotError>, case: &str) {
    match decoded {
        Err(SnapshotError::BadValue { .. }) => {}
        other => panic!("{case}: expected BadValue, got {other:?}"),
    }
}

#[test]
fn hostile_slot_bookings_are_rejected_before_allocating() {
    let far = slot_payload(4, 100, &[(100 + (1 << 40), 1)]);
    assert_bad_value(
        SlotTracker::from_payload(&far, "slots"),
        "booking 2^40 above frontier",
    );
    let over = slot_payload(4, 100, &[(120, 5)]);
    assert_bad_value(
        SlotTracker::from_payload(&over, "slots"),
        "count of width + 1",
    );

    // A booking below the frontier can never be read again: it is
    // dropped on restore and not written back.
    let stale = slot_payload(2, 100, &[(50, 2), (120, 2)]);
    let mut t = SlotTracker::from_payload(&stale, "slots").expect("stale booking restores");
    assert_eq!(t.to_payload(), slot_payload(2, 100, &[(120, 2)]));
    assert_eq!(t.alloc(120), 121, "restored booking still fills its cycle");
    assert_eq!(t.alloc(0), 100, "frontier still floors requests");

    // A full window at the top of the cycle range would overflow on its
    // next booking; the frontier ceiling rejects it.
    let overflowing = slot_payload(2, u64::MAX, &[(u64::MAX, 2)]);
    assert_bad_value(
        SlotTracker::from_payload(&overflowing, "slots"),
        "full window at u64::MAX",
    );
    // Just under the ceiling a window restores, re-encodes unchanged and
    // books past its full cycle.
    let top = slot_payload(2, CEILING - 1, &[(CEILING - 1, 2)]);
    let mut t =
        SlotTracker::from_payload(&top, "slots").expect("window under the ceiling restores");
    assert_eq!(t.to_payload(), top);
    let booked: Vec<u64> = (0..3).map(|_| t.alloc(0)).collect();
    assert_eq!(booked, [CEILING, CEILING, CEILING + 1]);
}

#[test]
fn hostile_in_order_bookings_are_rejected_before_allocating() {
    for (payload, case) in [
        (slot_payload(0, 100, &[]), "width zero"),
        (
            slot_payload(4, 100, &[(100 + (1 << 40), 1)]),
            "booking 2^40 above frontier",
        ),
        (slot_payload(4, 100, &[(120, 5)]), "count of width + 1"),
        (
            slot_payload(2, u64::MAX, &[(u64::MAX, 2)]),
            "full window at u64::MAX",
        ),
        (slot_payload(2, CEILING, &[]), "frontier at the ceiling"),
    ] {
        assert_bad_value(InOrderSlots::from_payload(&payload, "slots"), case);
    }

    // A stage keeps a window's latest booking and drops the rest.
    let window = slot_payload(2, 100, &[(50, 2), (110, 1), (120, 2)]);
    let mut t = InOrderSlots::from_payload(&window, "slots").expect("window restores");
    assert_eq!(t.to_payload(), slot_payload(2, 120, &[(120, 2)]));
    assert_eq!(t.alloc(120), 121, "the latest booked cycle is full");

    // An empty window keeps its frontier as the floor.
    let empty = slot_payload(2, 100, &[(50, 2)]);
    let mut t = InOrderSlots::from_payload(&empty, "slots").expect("empty window restores");
    assert_eq!(t.to_payload(), slot_payload(2, 100, &[]));
    assert_eq!(t.alloc(0), 100, "frontier floors requests");

    let top = slot_payload(2, CEILING - 1, &[(CEILING - 1, 2)]);
    let mut t =
        InOrderSlots::from_payload(&top, "slots").expect("stage under the ceiling restores");
    assert_eq!(t.to_payload(), top);
    let booked: Vec<u64> = (0..3).map(|_| t.alloc(0)).collect();
    assert_eq!(booked, [CEILING, CEILING, CEILING + 1]);
}

#[test]
fn hostile_latencies_are_rejected() {
    let memory = LatencyConfig {
        memory: u32::MAX,
        ..LatencyConfig::paper_default()
    };
    assert_bad_value(
        LatencyConfig::from_payload(&memory.to_payload(), "latency"),
        "memory latency u32::MAX",
    );
    let mut config = CoreConfig::paper_default();
    config.latency = memory;
    let core = OooCore::new(config).to_payload();
    assert_bad_value(
        OooCore::from_payload(&core, "core"),
        "core with memory latency u32::MAX",
    );
    let mut config = CoreConfig::paper_default();
    config.frontend_latency = u32::MAX;
    let core = OooCore::new(config).to_payload();
    assert_bad_value(
        OooCore::from_payload(&core, "core"),
        "core with frontend latency u32::MAX",
    );
}
