//! The chaos suite: thousands of seeded state faults and trace
//! corruptions, with one pass/fail criterion — nothing panics, every
//! structural invariant holds, and the predictors heal.
//!
//! Budget per the resilience spec: 10 000 state-fault injections split
//! across the CAP, hybrid and stride predictors, plus 1 000 corrupted
//! traces through both parsers, plus a measured recovery bound.

use cap_faults::plan::flip_random_bit;
use cap_faults::prelude::*;
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::drive::{ControlState, Session};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::{AddressPredictor, LoadContext};
use cap_rand::{rngs::StdRng, Rng, SeedableRng};
use cap_trace::corrupt::{corrupt, CorruptionKind};
use cap_trace::io::{read_trace, read_trace_lenient, write_trace};
use cap_trace::suites::catalog;
use cap_trace::{Trace, TraceEvent};

/// Drives `injections` faults into `p` in rounds: inject a batch, check
/// invariants, drive a slice of the trace (with occasional GHR upsets
/// applied driver-side), check invariants again. Returns the merged
/// injection report.
fn chaos_rounds<P: AddressPredictor + FaultTarget>(
    p: &mut P,
    trace: &Trace,
    injections: usize,
    seed: u64,
) -> InjectionReport {
    const BATCH: usize = 100;
    Session::new(p).run(trace); // warm tables before the first fault lands

    let plan = FaultPlan::new(seed, BATCH);
    let mut rng = plan.rng();
    let mut report = InjectionReport::default();
    let events: Vec<&TraceEvent> = trace.iter().collect();
    let mut cursor = 0usize;
    let slice = events.len() / (injections / BATCH).max(1);

    let mut done = 0usize;
    while done < injections {
        let batch = plan.inject_with(p, &mut rng);
        report.merge(&batch);
        done += batch.attempted;
        check_invariants(p).unwrap_or_else(|v| panic!("after injection batch: {v}"));

        // Drive a slice of the trace over the damaged tables. The GHR is
        // driver state, so FaultKind::Ghr upsets are applied here.
        let mut control = ControlState::default();
        for event in events.iter().cycle().skip(cursor).take(slice.max(64)) {
            match event {
                TraceEvent::Load(load) => {
                    if rng.gen_bool(0.01) {
                        control.ghr = flip_random_bit(control.ghr, &mut rng);
                    }
                    let ctx = LoadContext {
                        ip: load.ip,
                        offset: load.offset,
                        ghr: control.ghr,
                        path: control.path,
                        pending: 0,
                    };
                    let pred = p.predict(&ctx);
                    p.update(&ctx, load.addr, &pred);
                }
                TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
        cursor = (cursor + slice.max(64)) % events.len().max(1);
        check_invariants(p).unwrap_or_else(|v| panic!("after post-fault driving: {v}"));
    }
    report
}

#[test]
fn chaos_cap_4000_injections() {
    let trace = catalog()[0].generate(8_000);
    let mut p = CapPredictor::new(CapConfig::paper_default());
    let report = chaos_rounds(&mut p, &trace, 4_000, 0xCAFE_0001);
    assert_eq!(report.attempted, 4_000);
    assert!(
        report.applied > report.attempted / 2,
        "most faults must land on a warmed predictor (applied {})",
        report.applied
    );
}

#[test]
fn chaos_hybrid_4000_injections() {
    let trace = catalog()[1].generate(8_000);
    let mut p = HybridPredictor::new(HybridConfig::paper_default());
    let report = chaos_rounds(&mut p, &trace, 4_000, 0xCAFE_0002);
    assert_eq!(report.attempted, 4_000);
    assert!(report.applied > report.attempted / 2);
    // The full kind spectrum must have been exercised (Ghr excepted —
    // driver-side by design).
    assert!(
        report.by_kind.len() >= 9,
        "kinds seen: {:?}",
        report.by_kind
    );
}

#[test]
fn chaos_stride_2000_injections() {
    let trace = catalog()[2].generate(8_000);
    let mut p = StridePredictor::new(
        LoadBufferConfig::paper_default(),
        StrideParams::paper_default(),
    );
    let report = chaos_rounds(&mut p, &trace, 2_000, 0xCAFE_0003);
    assert_eq!(report.attempted, 2_000);
    assert!(report.applied > 0);
}

#[test]
fn chaos_hybrid_4000_injections_decoupled_pf() {
    use cap_predictor::link_table::PfMode;
    let trace = catalog()[3 % catalog().len()].generate(8_000);
    let mut config = HybridConfig::paper_default();
    config.lt.pf_mode = PfMode::Decoupled {
        extra_index_bits: 2,
    };
    let mut p = HybridPredictor::new(config);
    let report = chaos_rounds(&mut p, &trace, 4_000, 0xCAFE_0011);
    assert_eq!(report.attempted, 4_000);
    assert!(
        report.applied > 2_000,
        "most faults must land (applied {})",
        report.applied
    );
}

#[test]
fn chaos_hybrid_2000_injections_pipelined() {
    let trace = catalog()[2].generate(8_000);
    let mut p = HybridPredictor::new(HybridConfig::paper_pipelined());
    let report = chaos_rounds(&mut p, &trace, 2_000, 0xCAFE_0012);
    assert_eq!(report.attempted, 2_000);
    assert!(
        report.applied > 1_000,
        "most faults must land (applied {})",
        report.applied
    );
}

#[test]
fn chaos_1000_corrupted_traces_never_panic_either_parser() {
    let trace = catalog()[0].generate(400);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).expect("serialize");

    let mut rng = StdRng::seed_from_u64(0xBAD_F00D);
    let mut kinds_seen = [0usize; 4];
    for _ in 0..1_000 {
        let (mutated, kind) = corrupt(&bytes, &mut rng);
        kinds_seen[CorruptionKind::ALL.iter().position(|&k| k == kind).unwrap()] += 1;
        // Strict parser: Ok or a structured error — never a panic.
        let _ = read_trace(mutated.as_slice());
        // Lenient parser: always succeeds on in-memory input.
        let lenient = read_trace_lenient(mutated.as_slice()).expect("in-memory I/O is infallible");
        assert!(
            lenient.trace.len() <= trace.len() + 3,
            "junk lines must never parse as events"
        );
    }
    assert!(
        kinds_seen.iter().all(|&n| n > 100),
        "all corruption kinds exercised: {kinds_seen:?}"
    );
}

#[test]
fn chaos_1000_corrupted_snapshots_never_panic_and_name_their_section() {
    use cap_faults::snapshot::{corrupt_snapshot, SnapshotMutationKind};
    use cap_snapshot::{SnapshotArchive, SnapshotBuilder, SnapshotError};

    // A realistic archive: a warmed hybrid predictor plus driver state.
    let trace = catalog()[1].generate(6_000);
    let mut p = HybridPredictor::new(HybridConfig::paper_default());
    let stats = Session::new(&mut p).run(&trace);
    let mut b = SnapshotBuilder::new();
    b.add("predictor", &p);
    b.add("stats", &stats);
    let bytes = b.finish();

    let mut rng = StdRng::seed_from_u64(0x05EE_DBAD);
    let mut kinds_seen = [0usize; SnapshotMutationKind::ALL.len()];
    let mut still_parse = 0usize;
    let mut structured = 0usize;
    for _ in 0..1_000 {
        let (mutated, kind) = corrupt_snapshot(&bytes, &mut rng);
        kinds_seen[SnapshotMutationKind::ALL
            .iter()
            .position(|&k| k == kind)
            .unwrap()] += 1;
        match SnapshotArchive::parse(&mutated) {
            Ok(archive) => {
                still_parse += 1;
                // Framing survived; restoring may still fail — but only
                // with a structured error, never a panic.
                let _ = archive.restore::<HybridPredictor>("predictor");
            }
            Err(e) => {
                structured += 1;
                // Every error self-describes; payload damage names the
                // section the CRC pinned it to.
                assert!(!e.to_string().is_empty());
                if let SnapshotError::CrcMismatch { section, .. } = &e {
                    assert!(
                        section == "predictor" || section == "stats",
                        "CRC failure must name a real section, got '{section}'"
                    );
                }
            }
        }
    }
    assert_eq!(still_parse + structured, 1_000);
    assert!(
        kinds_seen.iter().all(|&n| n > 50),
        "all snapshot mutation kinds exercised: {kinds_seen:?}"
    );
    assert!(
        structured > 500,
        "most mutations of a CRC-checked format must be caught ({structured})"
    );

    // The pristine bytes must still restore a working predictor.
    let archive = SnapshotArchive::parse(&bytes).expect("pristine archive parses");
    let mut restored: HybridPredictor = archive.restore("predictor").expect("restores");
    Session::new(&mut restored).run(&trace);
}

#[test]
fn chaos_recovery_bound_is_finite_and_printed() {
    let trace = catalog()[0].generate(20_000);
    let plan = FaultPlan::new(0xFEED_BEEF, 128);
    let cfg = RecoveryConfig {
        inject_at: 4_000,
        window: 256,
        epsilon: 0.05,
    };
    let report = measure_recovery(
        || HybridPredictor::new(HybridConfig::paper_default()),
        &trace,
        &plan,
        &cfg,
    );
    assert!(report.injection.applied > 0);
    let bound = report
        .recovered_after
        .expect("hybrid must recover within the trace");
    println!(
        "recovery bound: {bound} loads after {} injected faults \
         (clean rate {:.3}, faulty rate {:.3}, \u{3b5}={})",
        report.injection.applied, report.clean_rate, report.faulty_rate, cfg.epsilon
    );
    assert!(bound <= report.loads_after_fault);
}
