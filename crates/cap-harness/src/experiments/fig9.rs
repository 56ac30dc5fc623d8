//! Figure 9 — correct speculative accesses vs history length, with and
//! without global correlation (stand-alone CAP, *no confidence* gate).
//!
//! Paper reference points: global correlation is worth ≈10% of all dynamic
//! loads; the optimal history length is 2 *without* correlation but 3–4
//! *with* it (shared base addresses need longer contexts to disambiguate);
//! very long histories (12) hurt both.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, Table};
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::metrics::PredictorStats;

/// History lengths swept (as in the paper's x-axis).
pub const HISTORY_LENGTHS: [usize; 6] = [1, 2, 3, 4, 6, 12];

/// Raw results backing the figure.
#[derive(Debug)]
pub struct Fig9 {
    /// Correct-speculative rates with global correlation, per history
    /// length (suite mean).
    pub with_correlation: Vec<f64>,
    /// Same without global correlation.
    pub without_correlation: Vec<f64>,
}

impl Fig9 {
    /// History length with the best rate, with correlation.
    #[must_use]
    pub fn best_length_with(&self) -> usize {
        best(&self.with_correlation)
    }

    /// History length with the best rate, without correlation.
    #[must_use]
    pub fn best_length_without(&self) -> usize {
        best(&self.without_correlation)
    }
}

fn best(rates: &[f64]) -> usize {
    let (i, _) = rates
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty");
    HISTORY_LENGTHS[i]
}

fn factory(length: usize, global: bool) -> PredictorFactory {
    let name = format!("h{length}{}", if global { "+gc" } else { "" });
    PredictorFactory::new(&name, move || {
        let mut cfg = CapConfig::paper_default();
        cfg.params.history.length = length;
        cfg.params.global_correlation = global;
        cfg.params.confidence_enabled = false; // isolate correlation (§4.5)
        CapPredictor::new(cfg)
    })
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig9, ExperimentReport) {
    let mut factories = Vec::new();
    for &len in &HISTORY_LENGTHS {
        factories.push(factory(len, true));
    }
    for &len in &HISTORY_LENGTHS {
        factories.push(factory(len, false));
    }
    let results = run_suite_sweep(scale, &factories, 0);
    let rate = |r: &SuiteResults| r.suite_mean(PredictorStats::correct_spec_rate);
    let with_correlation: Vec<f64> = results[..HISTORY_LENGTHS.len()].iter().map(rate).collect();
    let without_correlation: Vec<f64> = results[HISTORY_LENGTHS.len()..].iter().map(rate).collect();

    let mut table = Table::new(vec![
        "history length".into(),
        "global correlation".into(),
        "no global correlation".into(),
    ]);
    for (i, &len) in HISTORY_LENGTHS.iter().enumerate() {
        table.add_row(vec![
            len.to_string(),
            pct(with_correlation[i]),
            pct(without_correlation[i]),
        ]);
    }
    let data = Fig9 {
        with_correlation,
        without_correlation,
    };
    let report = ExperimentReport {
        id: "fig9",
        title: "Correct prediction as a function of the history length".into(),
        tables: vec![("correct spec accesses / all loads".into(), table)],
        notes: vec![
            "paper: global correlation worth ~10% of all loads".into(),
            "paper: optimum history length 2 without correlation, 3-4 with".into(),
            format!(
                "measured optimum: {} with, {} without",
                data.best_length_with(),
                data.best_length_without()
            ),
        ],
    };
    (data, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_helps_at_default_length() {
        let (data, _) = run(&Scale::tiny());
        // At length 4 (index 3) correlation should clearly win.
        assert!(
            data.with_correlation[3] > data.without_correlation[3],
            "correlation must help at length 4: {:.3} vs {:.3}",
            data.with_correlation[3],
            data.without_correlation[3]
        );
    }

    #[test]
    fn very_long_history_hurts() {
        let (data, _) = run(&Scale::tiny());
        let best = data
            .with_correlation
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max);
        let h12 = *data.with_correlation.last().expect("non-empty");
        assert!(
            h12 < best,
            "length 12 ({h12:.3}) should not be the optimum ({best:.3})"
        );
    }

    #[test]
    fn table_has_all_lengths() {
        let (_, report) = run(&Scale::tiny());
        assert_eq!(
            report.table("correct spec accesses / all loads").len(),
            HISTORY_LENGTHS.len()
        );
    }
}
