//! Figure 6 — hybrid prediction rate as a function of Load Buffer size and
//! associativity (2K-2way, 4K-1way, 4K-2way, 4K-4way, 8K-2way).
//!
//! Paper reference points: the big-footprint suites (CAD, JAV, NT, TPC,
//! W95) gain steadily with size; 2-way is a clear win over direct-mapped;
//! >2-way adds little; accuracy stays ~98.9% across configurations.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, pct2, Table};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::metrics::PredictorStats;
use cap_trace::suites::Suite;

/// The LB geometries swept, as (entries, associativity, label).
pub const LB_CONFIGS: [(usize, usize, &str); 5] = [
    (2048, 2, "2K,2way"),
    (4096, 1, "4K,1way"),
    (4096, 2, "4K,2way"),
    (4096, 4, "4K,4way"),
    (8192, 2, "8K,2way"),
];

/// Raw results backing the figure (one per [`LB_CONFIGS`] entry).
#[derive(Debug)]
pub struct Fig6 {
    /// Results in [`LB_CONFIGS`] order.
    pub results: Vec<SuiteResults>,
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig6, ExperimentReport) {
    let factories: Vec<PredictorFactory> = LB_CONFIGS
        .iter()
        .map(|&(entries, assoc, label)| {
            PredictorFactory::new(label, move || {
                let mut cfg = HybridConfig::paper_default();
                cfg.lb.entries = entries;
                cfg.lb.assoc = assoc;
                HybridPredictor::new(cfg)
            })
        })
        .collect();
    let results = run_suite_sweep(scale, &factories, 0);

    let mut headers: Vec<String> = vec!["suite".into()];
    headers.extend(LB_CONFIGS.iter().map(|c| c.2.to_owned()));
    headers.push("acc (4K,2way)".into());
    let mut table = Table::new(headers);
    let baseline_idx = 2; // 4K 2-way
    for suite in Suite::ALL {
        let mut row = vec![suite.name().to_owned()];
        for r in &results {
            row.push(pct(r.per_suite[&suite].prediction_rate()));
        }
        row.push(pct2(results[baseline_idx].per_suite[&suite].accuracy()));
        table.add_row(row);
    }
    let mut avg = vec!["Average".to_owned()];
    for r in &results {
        avg.push(pct(r.suite_mean(PredictorStats::prediction_rate)));
    }
    avg.push(pct2(
        results[baseline_idx].suite_mean(PredictorStats::accuracy),
    ));
    table.add_row(avg);

    let report = ExperimentReport {
        id: "fig6",
        title: "Hybrid prediction performance vs LB entries/associativity".into(),
        tables: vec![("prediction rate by LB geometry".into(), table)],
        notes: vec![
            "paper: CAD/JAV/NT/TPC/W95 rates grow steadily with LB size".into(),
            "paper: 2-way is a definite win; higher associativity less cost-effective".into(),
            "paper: accuracy ~constant (~98.9%) across configurations".into(),
        ],
    };
    (Fig6 { results }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_lb_helps_pressure_suites() {
        // LB pressure needs enough loads to cycle the big static
        // footprints, so this test runs above tiny scale.
        let (data, _) = run(&Scale {
            loads_per_trace: 30_000,
            traces_per_suite: Some(1),
        });
        // 8K-2way vs 2K-2way on the big-footprint suites.
        for suite in [Suite::Tpc, Suite::W95, Suite::Nt] {
            let small = data.results[0].per_suite[&suite].prediction_rate();
            let large = data.results[4].per_suite[&suite].prediction_rate();
            assert!(
                large > small,
                "{suite}: 8K ({large:.3}) must beat 2K ({small:.3})"
            );
        }
    }

    #[test]
    fn two_way_beats_direct_mapped_at_4k() {
        let (data, _) = run(&Scale::tiny());
        let dm = data.results[1].suite_mean(PredictorStats::prediction_rate);
        let w2 = data.results[2].suite_mean(PredictorStats::prediction_rate);
        assert!(
            w2 >= dm,
            "2-way {w2:.3} must not lose to direct-mapped {dm:.3}"
        );
    }

    #[test]
    fn report_has_all_columns() {
        let (_, report) = run(&Scale::tiny());
        let t = report.table("prediction rate by LB geometry");
        assert_eq!(t.rows()[0].len(), 1 + LB_CONFIGS.len() + 1);
        assert_eq!(t.len(), 9);
    }
}
