//! Golden pin of the predictors' archive bytes.
//!
//! `snapshot_roundtrip.rs` checks that encode → decode → encode is
//! byte-identical. A change of the archive layout passes that check on
//! both sides, so this file pins the bytes themselves: every case trains
//! one predictor on the first catalog trace of a suite with
//! `drive::Session` and renders one line with the length of its
//! `write_state` payload and a 64-bit FNV-1a digest of it.
//!
//! The cases are the stride predictor, CAP at the paper's defaults, at
//! Fig. 9's history length 12 without confidence and with a 2-way LT
//! under a decoupled PF table, and the hybrid at the paper's defaults
//! (gap 0) and `paper_pipelined` (gap 8). A hybrid with small tables
//! at gap 8 makes the LB and LT evict on every trace.
//!
//! Any diff against `tests/golden/snapshot_digests.txt` is a change of
//! the archive layout, of the predictor, or of the trace generators.
//!
//! To regenerate after an *intentional* change:
//! `CAP_UPDATE_GOLDEN=1 cargo test -p cap-predictor --test snapshot_golden`

use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::link_table::PfMode;
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::AddressPredictor;
use cap_snapshot::Snapshot;
use cap_trace::suites::{catalog, Suite, TraceSpec};
use std::path::PathBuf;

/// Loads generated per trace.
const LOADS: usize = 6_000;

/// FNV-1a, 64-bit: a fixed, dependency-free digest whose value cannot
/// drift with the standard library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The first catalog trace of every suite, in the paper's suite order.
fn first_per_suite() -> Vec<TraceSpec> {
    let specs = catalog();
    Suite::ALL
        .iter()
        .filter_map(|&suite| specs.iter().find(|s| s.suite == suite).cloned())
        .collect()
}

/// A fresh predictor behind the snapshot and prediction traits.
trait Archived: AddressPredictor + Snapshot {}
impl<T: AddressPredictor + Snapshot> Archived for T {}

/// One pinned configuration: its label, the session gap, and a
/// constructor.
type Case = (&'static str, usize, fn() -> Box<dyn Archived>);

fn cases() -> Vec<Case> {
    vec![
        ("stride/paper_default", 0, || {
            Box::new(StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(),
            ))
        }),
        ("cap/paper_default", 0, || {
            Box::new(CapPredictor::new(CapConfig::paper_default()))
        }),
        ("cap/fig9_length12_no_confidence", 0, || {
            let mut cfg = CapConfig::paper_default();
            cfg.params.history.length = 12;
            cfg.params.confidence_enabled = false;
            Box::new(CapPredictor::new(cfg))
        }),
        ("cap/lt_2way_decoupled_pf", 0, || {
            let mut cfg = CapConfig::paper_default();
            cfg.lt.assoc = 2;
            cfg.lt.pf_mode = PfMode::Decoupled {
                extra_index_bits: 2,
            };
            Box::new(CapPredictor::new(cfg))
        }),
        ("hybrid/paper_default", 0, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_default()))
        }),
        ("hybrid/paper_pipelined_gap8", 8, || {
            Box::new(HybridPredictor::new(HybridConfig::paper_pipelined()))
        }),
        ("hybrid/small_tables_gap8", 8, || {
            let mut cfg = HybridConfig::paper_pipelined();
            cfg.lb.entries = 32;
            cfg.lt.entries = 128;
            cfg.lt.assoc = 2;
            cfg.cap.history.length = 12;
            cfg.cap.history.index_bits = 6;
            Box::new(HybridPredictor::new(cfg))
        }),
    ]
}

fn render() -> String {
    let mut out = String::new();
    let traces: Vec<(TraceSpec, cap_trace::Trace)> = first_per_suite()
        .into_iter()
        .map(|spec| {
            let trace = spec.generate(LOADS);
            (spec, trace)
        })
        .collect();
    for (label, gap, build) in cases() {
        for (spec, trace) in &traces {
            let mut p = build();
            let _ = Session::new(p.as_mut()).gap(gap).run(trace);
            let bytes = p.to_payload();
            out += &format!(
                "{label}/{} bytes={} digest={:016x}\n",
                spec.name,
                bytes.len(),
                fnv1a(&bytes)
            );
        }
    }
    out
}

#[test]
fn predictor_archives_are_golden() {
    let actual = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/snapshot_digests.txt");
    if std::env::var_os("CAP_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with CAP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "snapshot_digests.txt line {} drifted", i + 1);
    }
    assert!(
        expected == actual,
        "snapshot_digests.txt drifted ({} vs {} bytes); if the change is \
         intentional, regenerate with CAP_UPDATE_GOLDEN=1",
        expected.len(),
        actual.len()
    );
}
