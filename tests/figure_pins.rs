//! The figure sweep's seed-0 pins, checked in tier-1.
//!
//! `perfbench/pins/figures_seed0.txt` pins, for every catalog trace at
//! 20 000 loads, the predictions and correct predictions of the four
//! `Session` configurations `repro` sweeps (stride, CAP and hybrid at
//! immediate update, the hybrid at gap 8) and the simulated cycles of
//! the timing core without and with the hybrid. This test recomputes
//! every row the way perfbench's figure pass does and compares it with
//! the file, which it only reads. Regenerate the file with perfbench's
//! `--pins`, and only for an intentional change of simulated results.

use cap_harness::runner::PredictorFactory;
use cap_predictor::drive::Session;
use cap_trace::suites::catalog;
use cap_uarch::core::{run_trace, CoreConfig};
use std::path::PathBuf;

/// Loads generated per catalog trace, as perfbench's `figures` uses.
const LOADS_PER_TRACE: usize = 20_000;

/// Prediction gap of the pipelined hybrid configuration.
const PIPELINE_GAP: usize = 8;

/// The pin file line for one catalog trace.
fn pin_line(name: &str, trace: &cap_trace::Trace) -> String {
    let sessions = [
        (PredictorFactory::enhanced_stride(), 0),
        (PredictorFactory::cap(), 0),
        (PredictorFactory::hybrid(), 0),
        (PredictorFactory::hybrid(), PIPELINE_GAP),
    ];
    let mut cols = Vec::new();
    for (i, (factory, gap)) in sessions.iter().enumerate() {
        let mut p = factory.build();
        let stats = Session::new(p.as_mut()).gap(*gap).run(trace);
        if i == 0 {
            cols.push(stats.loads);
        }
        cols.extend([stats.spec_accesses, stats.correct_spec]);
    }
    let core = CoreConfig::paper_default();
    cols.push(run_trace(trace, &core, None, 0).cycles);
    let mut hybrid = PredictorFactory::hybrid().build();
    cols.push(run_trace(trace, &core, Some(hybrid.as_mut()), 0).cycles);
    let cols: Vec<String> = cols.iter().map(u64::to_string).collect();
    format!("{name} {}", cols.join(" "))
}

#[test]
fn figure_sweep_matches_the_seed0_pins() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("perfbench/pins/figures_seed0.txt");
    let pins =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let pinned: Vec<&str> = pins
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let specs = catalog();
    assert_eq!(
        pinned.len(),
        specs.len(),
        "one pinned row per catalog trace"
    );
    let mut bad = Vec::new();
    for (spec, pin) in specs.iter().zip(&pinned) {
        let ours = pin_line(spec.name, &spec.generate(LOADS_PER_TRACE));
        if ours != *pin {
            bad.push(format!("{}: got '{ours}', pinned '{pin}'", spec.name));
        }
    }
    assert!(bad.is_empty(), "seed-0 pins drifted:\n{}", bad.join("\n"));
}
