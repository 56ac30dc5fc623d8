//! Corruption smoke run: 1 000 seeded mutations of a serialized trace
//! through both parsers, plus 1 000 seeded mutations of a snapshot archive
//! through the checkpoint loader. Exits nonzero (panics) if any parser or
//! loader panics, returns anything but a structured result, or the
//! lenient parser fails on in-memory input. `scripts/verify.sh` runs it
//! as one of its core steps.

use cap_faults::snapshot::{corrupt_snapshot, SnapshotMutationKind};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_rand::{rngs::StdRng, SeedableRng};
use cap_snapshot::{SnapshotArchive, SnapshotBuilder};
use cap_trace::corrupt::{corrupt, CorruptionKind};
use cap_trace::io::{read_trace, read_trace_lenient, write_trace};
use cap_trace::suites::catalog;

fn trace_smoke() {
    let trace = catalog()[0].generate(500);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).expect("serialize");

    let mut rng = StdRng::seed_from_u64(0x5140_CE55);
    let mut ok = 0usize;
    let mut structured_errors = 0usize;
    let mut by_kind = [0usize; 4];
    for _ in 0..1_000 {
        let (mutated, kind) = corrupt(&bytes, &mut rng);
        by_kind[CorruptionKind::ALL.iter().position(|&k| k == kind).unwrap()] += 1;
        match read_trace(mutated.as_slice()) {
            Ok(_) => ok += 1,
            Err(_) => structured_errors += 1,
        }
        let lenient =
            read_trace_lenient(mutated.as_slice()).expect("lenient parse of in-memory bytes");
        assert!(
            lenient.trace.len() <= trace.len(),
            "corruption must never create events"
        );
    }
    println!(
        "corruption smoke: 1000 trace mutations, {ok} still parse, {structured_errors} \
         structured errors, 0 panics (kinds {by_kind:?})"
    );
    assert_eq!(ok + structured_errors, 1_000);
}

fn snapshot_smoke() {
    let trace = catalog()[1].generate(4_000);
    let mut p = HybridPredictor::new(HybridConfig::paper_default());
    let stats = Session::new(&mut p).run(&trace);
    let mut b = SnapshotBuilder::new();
    b.add("predictor", &p);
    b.add("stats", &stats);
    let bytes = b.finish();

    let mut rng = StdRng::seed_from_u64(0x5140_CE56);
    let mut ok = 0usize;
    let mut structured_errors = 0usize;
    let mut by_kind = [0usize; SnapshotMutationKind::ALL.len()];
    for _ in 0..1_000 {
        let (mutated, kind) = corrupt_snapshot(&bytes, &mut rng);
        by_kind[SnapshotMutationKind::ALL
            .iter()
            .position(|&k| k == kind)
            .unwrap()] += 1;
        match SnapshotArchive::parse(&mutated) {
            Ok(archive) => {
                ok += 1;
                // Restoring from surviving framing must also be panic-free.
                let _ = archive.restore::<HybridPredictor>("predictor");
            }
            Err(e) => {
                structured_errors += 1;
                assert!(!e.to_string().is_empty(), "errors must self-describe");
            }
        }
    }
    println!(
        "corruption smoke: 1000 snapshot mutations, {ok} still parse, {structured_errors} \
         structured errors, 0 panics (kinds {by_kind:?})"
    );
    assert_eq!(ok + structured_errors, 1_000);
}

fn main() {
    trace_smoke();
    snapshot_smoke();
}
