//! Snapshot round-trip fidelity for the predictor structures.
//!
//! Two properties are checked for every predictor flavour:
//!
//! 1. **Canonical encoding** — encode → decode → encode is byte-identical,
//!    so a snapshot of a restored predictor equals the original snapshot.
//! 2. **Behavioural equivalence** — a run paused at an arbitrary event,
//!    snapshotted, restored into fresh objects, and resumed produces
//!    *bit-identical* final statistics to the uninterrupted run.

use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::drive::ControlState;
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::{IntervalCounter, LoadBufferConfig};
use cap_predictor::metrics::PredictorStats;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::{AddressPredictor, LoadContext};
use cap_snapshot::{Restorable, Snapshot, SnapshotArchive, SnapshotBuilder};
use cap_trace::builder::TraceBuilder;
use cap_trace::{Trace, TraceEvent};

fn trace() -> Trace {
    cap_trace::suites::catalog()[1].generate(20_000)
}

/// Mirrors an immediate-update `Session`, pausing after `pause_at` events to hand the
/// live state to `checkpoint`, which may replace predictor/control/stats.
fn run_with_pause<P, F>(
    predictor: &mut P,
    trace: &Trace,
    pause_at: usize,
    mut checkpoint: F,
) -> PredictorStats
where
    P: AddressPredictor + Snapshot + Restorable,
    F: FnMut(&mut P, &mut ControlState, &mut PredictorStats),
{
    let mut stats = PredictorStats::new();
    let mut control = ControlState::default();
    for (i, event) in trace.iter().enumerate() {
        if i == pause_at {
            checkpoint(predictor, &mut control, &mut stats);
        }
        match event {
            TraceEvent::Load(load) => {
                let ctx = LoadContext {
                    ip: load.ip,
                    offset: load.offset,
                    ghr: control.ghr,
                    path: control.path,
                    pending: 0,
                };
                let pred = predictor.predict(&ctx);
                predictor.update(&ctx, load.addr, &pred);
                stats.record(&pred, load.addr);
            }
            TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
            TraceEvent::Store(_) | TraceEvent::Op(_) => {}
        }
    }
    stats
}

fn assert_resume_is_bit_identical<P, M>(make: M)
where
    P: AddressPredictor + Snapshot + Restorable,
    M: Fn() -> P,
{
    let trace = trace();
    let mut uninterrupted = make();
    let reference = run_with_pause(&mut uninterrupted, &trace, usize::MAX, |_, _, _| {});

    for pause_at in [0, 1, 137, trace.len() / 2, trace.len() - 1] {
        let mut p = make();
        let stats = run_with_pause(&mut p, &trace, pause_at, |p, control, stats| {
            let mut b = SnapshotBuilder::new();
            b.add("predictor", p);
            b.add("control", control as &ControlState);
            b.add("stats", stats as &PredictorStats);
            let bytes = b.finish();

            let archive = SnapshotArchive::parse(&bytes).expect("own snapshot parses");
            *p = archive
                .restore::<P>("predictor")
                .expect("predictor restores");
            *control = archive.restore("control").expect("control restores");
            *stats = archive.restore("stats").expect("stats restore");
        });
        assert_eq!(
            stats, reference,
            "resume at event {pause_at} must be bit-identical"
        );
    }
}

fn assert_reencode_is_identical<P, M>(make: M)
where
    P: AddressPredictor + Snapshot + Restorable,
    M: Fn() -> P,
{
    let trace = trace();
    let mut p = make();
    cap_predictor::drive::Session::new(&mut p).run(&trace);
    let first = p.to_payload();
    let restored = P::from_payload(&first, "predictor").expect("payload restores");
    assert_eq!(
        restored.to_payload(),
        first,
        "decode must reproduce the exact encoding"
    );
}

fn small_hybrid() -> HybridPredictor {
    let mut cfg = HybridConfig::paper_default();
    cfg.lb.entries = 256;
    cfg.lt.entries = 1024;
    cfg.lt.assoc = 2;
    cfg.cap.history.index_bits = 10;
    HybridPredictor::new(cfg)
}

fn small_cap() -> CapPredictor {
    let mut cfg = CapConfig::paper_default();
    cfg.lb.entries = 256;
    cfg.lt.entries = 1024;
    cfg.lt.assoc = 2;
    cfg.params.history.index_bits = 10;
    CapPredictor::new(cfg)
}

fn small_stride() -> StridePredictor {
    StridePredictor::new(
        LoadBufferConfig {
            entries: 256,
            assoc: 2,
        },
        StrideParams::paper_default(),
    )
}

#[test]
fn hybrid_resume_is_bit_identical() {
    assert_resume_is_bit_identical(small_hybrid);
}

#[test]
fn cap_resume_is_bit_identical() {
    assert_resume_is_bit_identical(small_cap);
}

#[test]
fn stride_resume_is_bit_identical() {
    assert_resume_is_bit_identical(small_stride);
}

#[test]
fn hybrid_reencode_is_identical() {
    assert_reencode_is_identical(small_hybrid);
}

#[test]
fn cap_reencode_is_identical() {
    assert_reencode_is_identical(small_cap);
}

#[test]
fn stride_reencode_is_identical() {
    assert_reencode_is_identical(small_stride);
}

#[test]
fn stats_roundtrip_preserves_every_counter() {
    let s = PredictorStats {
        loads: 1,
        predictions: 2,
        spec_accesses: 3,
        correct_spec: 4,
        correct_predictions: 5,
        both_predicted_spec: 6,
        selector_states: [7, 8, 9, 10],
        miss_selections: 11,
    };
    let restored = PredictorStats::from_payload(&s.to_payload(), "stats").unwrap();
    assert_eq!(restored, s);
}

/// One load IP walking a stride-8 array from element `from` to `to`.
fn stride_walk(from: u64, to: u64) -> Trace {
    let mut b = TraceBuilder::new();
    for i in from..to {
        b.load(0x40, 0x1000 + i * 8, 0);
    }
    b.finish()
}

#[test]
fn restored_saturated_interval_run_stays_exhausted_under_a_gap() {
    // `IntervalCounter::read_state` accepts any run, and `run` saturates
    // at u32::MAX by design. Adding the in-flight count to it used to
    // overflow: a panic in debug builds, and in release a wrap that let
    // the load speculate past its learned interval.
    let mut p = small_stride();
    let warm = Session::new(&mut p).run(&stride_walk(0, 400));
    assert!(
        warm.spec_accesses > 0,
        "the stride must be confident before the edit"
    );
    for entry in p.load_buffer_mut().entries_mut() {
        entry.interval = IntervalCounter {
            learned: 5,
            run: u32::MAX,
        };
    }
    let mut restored =
        StridePredictor::from_payload(&p.to_payload(), "predictor").expect("payload restores");
    let rest = stride_walk(400, 800);
    let stats = Session::new(&mut restored).gap(8).run(&rest);
    assert_eq!(stats.loads as usize, rest.load_count());
    assert_eq!(
        stats.spec_accesses, 0,
        "a run past its learned interval must withhold speculation"
    );
}
