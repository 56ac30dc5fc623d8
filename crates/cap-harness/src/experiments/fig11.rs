//! Figure 11 — influence of the prediction gap on prediction rate and
//! accuracy, for the (pipelined) enhanced stride and hybrid predictors.
//!
//! Paper reference points: hybrid prediction rate drops ~7% going from
//! immediate update to a realistic pipeline and is then nearly flat in the
//! gap; accuracy is the casualty — 98.9% immediate → 96.6% at gap 4 →
//! 96.1% at gap 12; the hybrid stays ~8.6% correct-predictions ahead of
//! the enhanced stride.
//!
//! The paper expresses the gap in pipeline *cycles*; this model counts
//! dynamic *instructions* between prediction and table update. At the
//! simulated machine's typical IPC (≈2) a gap of `2g` instructions
//! corresponds to roughly `g` cycles, so the sweep uses {0, 8, 16, 24}
//! instructions to mirror the paper's {immediate, 4, 8, 12} cycles.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, pct2, Table};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::stride::{StrideParams, StridePredictor};

/// The gaps swept, as (instruction gap, paper-cycles label).
pub const GAPS: [(usize, &str); 4] = [(0, "immediate"), (8, "4"), (16, "8"), (24, "12")];

/// Raw results backing the figure.
#[derive(Debug)]
pub struct Fig11 {
    /// Per gap: (stride results, hybrid results).
    pub per_gap: Vec<(SuiteResults, SuiteResults)>,
}

impl Fig11 {
    /// Suite-mean (rate, accuracy) for the hybrid at gap index `i`.
    #[must_use]
    pub fn hybrid_point(&self, i: usize) -> (f64, f64) {
        let r = &self.per_gap[i].1;
        (
            r.suite_mean(PredictorStats::prediction_rate),
            r.suite_mean(PredictorStats::accuracy),
        )
    }

    /// Suite-mean (rate, accuracy) for the stride at gap index `i`.
    #[must_use]
    pub fn stride_point(&self, i: usize) -> (f64, f64) {
        let r = &self.per_gap[i].0;
        (
            r.suite_mean(PredictorStats::prediction_rate),
            r.suite_mean(PredictorStats::accuracy),
        )
    }
}

fn pipelined_factories() -> [PredictorFactory; 2] {
    [
        PredictorFactory::new("stride", || {
            StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(), // catch-up + interval on
            )
        }),
        PredictorFactory::new("hybrid", || {
            HybridPredictor::new(HybridConfig::paper_pipelined())
        }),
    ]
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig11, ExperimentReport) {
    let mut per_gap = Vec::new();
    for &(gap, _) in &GAPS {
        let mut results = run_suite_sweep(scale, &pipelined_factories(), gap);
        let hybrid = results.pop().expect("two factories");
        let stride = results.pop().expect("two factories");
        per_gap.push((stride, hybrid));
    }
    let data = Fig11 { per_gap };

    let mut table = Table::new(vec![
        "gap (cycles)".into(),
        "stride rate".into(),
        "hybrid rate".into(),
        "stride acc".into(),
        "hybrid acc".into(),
        "stride correct".into(),
        "hybrid correct".into(),
    ]);
    for (i, &(_, label)) in GAPS.iter().enumerate() {
        let s = &data.per_gap[i].0;
        let h = &data.per_gap[i].1;
        table.add_row(vec![
            label.to_owned(),
            pct(s.suite_mean(PredictorStats::prediction_rate)),
            pct(h.suite_mean(PredictorStats::prediction_rate)),
            pct2(s.suite_mean(PredictorStats::accuracy)),
            pct2(h.suite_mean(PredictorStats::accuracy)),
            pct(s.suite_mean(PredictorStats::correct_spec_rate)),
            pct(h.suite_mean(PredictorStats::correct_spec_rate)),
        ]);
    }

    let report = ExperimentReport {
        id: "fig11",
        title: "Influence of the prediction gap on the predictor".into(),
        tables: vec![("prediction rate & accuracy vs gap".into(), table)],
        notes: vec![
            "paper: hybrid rate falls ~7% from immediate to pipelined, then ~flat".into(),
            "paper: accuracy 98.9% -> 96.6% (gap 4) -> 96.1% (gap 12)".into(),
            "gap expressed in instructions (~2x the paper's cycles at IPC 2)".into(),
        ],
    };
    (data, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_hurts_rate_and_accuracy() {
        let (data, _) = run(&Scale::tiny());
        let (rate0, acc0) = data.hybrid_point(0);
        let (rate8, acc8) = data.hybrid_point(2);
        assert!(
            rate8 < rate0,
            "gap must reduce rate: {rate8:.3} vs {rate0:.3}"
        );
        assert!(
            acc8 < acc0,
            "gap must reduce accuracy: {acc8:.4} vs {acc0:.4}"
        );
    }

    #[test]
    fn rate_flattens_after_first_gap() {
        let (data, _) = run(&Scale::tiny());
        let (rate4, _) = data.hybrid_point(1);
        let (rate12, _) = data.hybrid_point(3);
        assert!(
            (rate4 - rate12).abs() < 0.12,
            "rate should be ~flat across gaps: {rate4:.3} vs {rate12:.3}"
        );
    }

    #[test]
    fn hybrid_stays_ahead_of_stride_under_gap() {
        let (data, _) = run(&Scale::tiny());
        let (h, _) = data.hybrid_point(2);
        let (s, _) = data.stride_point(2);
        assert!(h > s, "hybrid {h:.3} must beat stride {s:.3} at gap 8");
    }
}
