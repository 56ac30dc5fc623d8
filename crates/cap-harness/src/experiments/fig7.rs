//! Figure 7 — per-trace processor speedup over no-address-prediction, for
//! the enhanced stride and hybrid predictors (immediate update).
//!
//! Paper reference points: most traces land in the 10–25% range, hybrid
//! averages ≈21% with ≈6.3% over stride alone; JAVA shows outsized gains
//! (stack-model memory-op density); TPC/W95 gain least (LB contention).

use super::ExperimentReport;
use crate::runner::{geomean_speedup, run_speedup_sweep, PredictorFactory, Scale, SpeedupRow};
use crate::table::{ratio, Table};
use cap_trace::suites::Suite;
use cap_uarch::core::CoreConfig;

/// Raw results backing the figure.
#[derive(Debug)]
pub struct Fig7 {
    /// One row per trace; `with_prediction[0]` = stride, `[1]` = hybrid.
    pub rows: Vec<SpeedupRow>,
}

impl Fig7 {
    /// Geometric-mean speedup of the stride configuration.
    #[must_use]
    pub fn stride_geomean(&self) -> f64 {
        geomean_speedup(&self.rows, 0)
    }

    /// Geometric-mean speedup of the hybrid configuration.
    #[must_use]
    pub fn hybrid_geomean(&self) -> f64 {
        geomean_speedup(&self.rows, 1)
    }

    /// Geometric-mean hybrid speedup within one suite.
    #[must_use]
    pub fn suite_geomean(&self, suite: Suite, config: usize) -> f64 {
        let rows: Vec<SpeedupRow> = self
            .rows
            .iter()
            .filter(|r| r.suite == suite)
            .cloned()
            .collect();
        geomean_speedup(&rows, config)
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig7, ExperimentReport) {
    let factories = [
        PredictorFactory::enhanced_stride(),
        PredictorFactory::hybrid(),
    ];
    let rows = run_speedup_sweep(scale, &factories, &CoreConfig::paper_default(), 0);

    let mut table = Table::new(vec![
        "trace".into(),
        "base IPC".into(),
        "stride speedup".into(),
        "hybrid speedup".into(),
    ]);
    for r in &rows {
        table.add_row(vec![
            r.trace.clone(),
            format!("{:.2}", r.baseline.ipc()),
            ratio(r.speedup(0)),
            ratio(r.speedup(1)),
        ]);
    }
    let data = Fig7 { rows };
    let mut summary = Table::new(vec!["aggregate".into(), "stride".into(), "hybrid".into()]);
    summary.add_row(vec![
        "geomean speedup".into(),
        ratio(data.stride_geomean()),
        ratio(data.hybrid_geomean()),
    ]);

    let report = ExperimentReport {
        id: "fig7",
        title: "Relative performance of enhanced stride and hybrid address predictors".into(),
        tables: vec![
            ("per-trace speedup".into(), table),
            ("summary".into(), summary),
        ],
        notes: vec![
            "paper: average speedup ~1.21 (hybrid), ~6.3% above enhanced stride".into(),
            "paper: JAVA traces gain most; TPC/W95 least".into(),
        ],
    };
    (data, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_beats_stride_and_baseline() {
        let (data, _) = run(&Scale::tiny());
        assert!(data.hybrid_geomean() > 1.0, "hybrid must speed up");
        assert!(
            data.hybrid_geomean() >= data.stride_geomean() - 1e-6,
            "hybrid {:.3} must not lose to stride {:.3}",
            data.hybrid_geomean(),
            data.stride_geomean()
        );
    }

    #[test]
    fn one_row_per_trace() {
        let (data, report) = run(&Scale::tiny());
        assert_eq!(data.rows.len(), 8);
        assert_eq!(report.table("per-trace speedup").len(), 8);
    }
}
