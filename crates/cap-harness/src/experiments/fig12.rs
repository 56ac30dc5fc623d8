//! Figure 12 — per-suite speedups for the enhanced stride and hybrid
//! predictors, under immediate update and under a prediction gap of 8
//! cycles.
//!
//! Paper reference points: speedups shrink under the gap but remain
//! significant — the hybrid averages ≈14.1% at gap 8 (down from ≈21%
//! immediate), staying ≈3.9% ahead of the enhanced stride.

use super::ExperimentReport;
use crate::runner::{geomean_speedup, run_speedup_sweep, PredictorFactory, Scale, SpeedupRow};
use crate::table::{ratio, Table};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_trace::suites::Suite;
use cap_uarch::core::CoreConfig;

/// Instruction gap corresponding to the paper's 8-cycle gap (IPC ≈ 2).
pub const GAP_8_CYCLES: usize = 16;

/// Raw results backing the figure.
#[derive(Debug)]
pub struct Fig12 {
    /// Immediate-update rows (`with_prediction[0]` stride, `[1]` hybrid).
    pub immediate: Vec<SpeedupRow>,
    /// Gap-8 rows (same layout; pipelined predictor configurations).
    pub gapped: Vec<SpeedupRow>,
}

impl Fig12 {
    fn suite_rows(rows: &[SpeedupRow], suite: Suite) -> Vec<SpeedupRow> {
        rows.iter().filter(|r| r.suite == suite).cloned().collect()
    }

    /// Geomean speedup for (suite, config, gapped?).
    #[must_use]
    pub fn suite_speedup(&self, suite: Suite, config: usize, gapped: bool) -> f64 {
        let rows = Self::suite_rows(
            if gapped {
                &self.gapped
            } else {
                &self.immediate
            },
            suite,
        );
        geomean_speedup(&rows, config)
    }

    /// Overall geomean speedup for (config, gapped?).
    #[must_use]
    pub fn overall_speedup(&self, config: usize, gapped: bool) -> f64 {
        geomean_speedup(
            if gapped {
                &self.gapped
            } else {
                &self.immediate
            },
            config,
        )
    }
}

fn immediate_factories() -> [PredictorFactory; 2] {
    [
        PredictorFactory::enhanced_stride(),
        PredictorFactory::hybrid(),
    ]
}

fn pipelined_factories() -> [PredictorFactory; 2] {
    [
        PredictorFactory::new("stride", || {
            StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(),
            )
        }),
        PredictorFactory::new("hybrid", || {
            HybridPredictor::new(HybridConfig::paper_pipelined())
        }),
    ]
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig12, ExperimentReport) {
    let core = CoreConfig::paper_default();
    let immediate = run_speedup_sweep(scale, &immediate_factories(), &core, 0);
    let gapped = run_speedup_sweep(scale, &pipelined_factories(), &core, GAP_8_CYCLES);
    let data = Fig12 { immediate, gapped };

    let mut table = Table::new(vec![
        "suite".into(),
        "stride imm".into(),
        "stride gap8".into(),
        "hybrid imm".into(),
        "hybrid gap8".into(),
    ]);
    for suite in Suite::ALL {
        table.add_row(vec![
            suite.name().into(),
            ratio(data.suite_speedup(suite, 0, false)),
            ratio(data.suite_speedup(suite, 0, true)),
            ratio(data.suite_speedup(suite, 1, false)),
            ratio(data.suite_speedup(suite, 1, true)),
        ]);
    }
    table.add_row(vec![
        "Average".into(),
        ratio(data.overall_speedup(0, false)),
        ratio(data.overall_speedup(0, true)),
        ratio(data.overall_speedup(1, false)),
        ratio(data.overall_speedup(1, true)),
    ]);

    let report = ExperimentReport {
        id: "fig12",
        title: "Relative performance under a prediction gap of 8 cycles".into(),
        tables: vec![("per-suite geomean speedup".into(), table)],
        notes: vec![
            "paper: hybrid ~1.141 average at gap 8 (vs ~1.21 immediate)".into(),
            "paper: hybrid stays ~3.9% ahead of the enhanced stride at gap 8".into(),
        ],
    };
    (data, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_shrinks_but_preserves_speedup() {
        let (data, _) = run(&Scale::tiny());
        let imm = data.overall_speedup(1, false);
        let gap = data.overall_speedup(1, true);
        assert!(
            gap <= imm + 1e-9,
            "gap must not beat immediate: {gap:.3} vs {imm:.3}"
        );
        assert!(gap > 1.0, "gapped hybrid must still help: {gap:.3}");
    }

    #[test]
    fn hybrid_stays_ahead_of_stride_at_gap() {
        let (data, _) = run(&Scale::tiny());
        let h = data.overall_speedup(1, true);
        let s = data.overall_speedup(0, true);
        assert!(
            h >= s - 1e-6,
            "hybrid {h:.3} must not lose to stride {s:.3} at gap 8"
        );
    }

    #[test]
    fn table_covers_all_suites() {
        let (_, report) = run(&Scale::tiny());
        assert_eq!(report.table("per-suite geomean speedup").len(), 9);
    }
}
