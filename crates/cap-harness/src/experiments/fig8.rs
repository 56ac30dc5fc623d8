//! Figure 8 — hybrid selector behaviour: distribution of the 2-bit
//! selector states over loads predicted by *both* components, and the
//! correct-selection rate.
//!
//! Paper reference points: ~80% of speculative accesses are dual-predicted;
//! almost 90% of those sit in the two CAP-selecting states (the
//! always-update LT policy funnels most predictions through CAP); the
//! correct-selection rate exceeds 99.2% everywhere.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, pct2, Table};
use cap_predictor::metrics::PredictorStats;
use cap_trace::suites::Suite;

/// Raw results backing the figure.
#[derive(Debug)]
pub struct Fig8 {
    /// Hybrid results with selector diagnostics.
    pub hybrid: SuiteResults,
}

impl Fig8 {
    /// Fraction of dual-predicted speculative accesses spent in each
    /// selector state, for one suite.
    #[must_use]
    pub fn state_distribution(&self, suite: Suite) -> [f64; 4] {
        let s = &self.hybrid.per_suite[&suite];
        let total: u64 = s.selector_states.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, &c) in out.iter_mut().zip(&s.selector_states) {
            *o = c as f64 / total as f64;
        }
        out
    }

    /// Fraction of speculative accesses that were dual-predicted, overall.
    #[must_use]
    pub fn dual_predicted_fraction(&self) -> f64 {
        let s = &self.hybrid.overall;
        if s.spec_accesses == 0 {
            0.0
        } else {
            s.both_predicted_spec as f64 / s.spec_accesses as f64
        }
    }
}

const STATE_LABELS: [&str; 4] = ["strong stride", "weak stride", "weak CAP", "strong CAP"];

/// Runs the experiment.
#[must_use]
pub fn run(scale: &Scale) -> (Fig8, ExperimentReport) {
    let results = run_suite_sweep(scale, &[PredictorFactory::hybrid()], 0);
    let data = Fig8 {
        hybrid: results.into_iter().next().expect("one factory"),
    };

    let mut headers: Vec<String> = vec!["suite".into()];
    headers.extend(STATE_LABELS.iter().map(|s| (*s).to_owned()));
    headers.push("correct selection".into());
    let mut table = Table::new(headers);
    for suite in Suite::ALL {
        let dist = data.state_distribution(suite);
        let mut row = vec![suite.name().to_owned()];
        row.extend(dist.iter().map(|&d| pct(d)));
        row.push(pct2(data.hybrid.per_suite[&suite].correct_selection_rate()));
        table.add_row(row);
    }
    let mut avg = vec!["Average".to_owned()];
    let mut sums = [0.0; 4];
    for suite in Suite::ALL {
        for (s, d) in sums.iter_mut().zip(data.state_distribution(suite)) {
            *s += d / Suite::ALL.len() as f64;
        }
    }
    avg.extend(sums.iter().map(|&d| pct(d)));
    avg.push(pct2(
        data.hybrid
            .suite_mean(PredictorStats::correct_selection_rate),
    ));
    table.add_row(avg);

    let mut extra = Table::new(vec!["metric".into(), "value".into()]);
    extra.add_row(vec![
        "dual-predicted fraction of speculative accesses".into(),
        pct(data.dual_predicted_fraction()),
    ]);

    let report = ExperimentReport {
        id: "fig8",
        title: "Selector performance".into(),
        tables: vec![
            (
                "selector state distribution (dual-predicted loads)".into(),
                table,
            ),
            ("context".into(), extra),
        ],
        notes: vec![
            "paper: ~80% of speculative accesses are predicted by both components".into(),
            "paper: ~90% of dual-predicted loads sit in the two CAP states".into(),
            "paper: correct selection rate >99.2% (2-bit counters near-perfect)".into(),
        ],
    };
    (data, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_prefers_cap_states() {
        let (data, _) = run(&Scale::tiny());
        let mut cap_share = 0.0;
        for suite in Suite::ALL {
            let d = data.state_distribution(suite);
            cap_share += (d[2] + d[3]) / Suite::ALL.len() as f64;
        }
        assert!(
            cap_share > 0.5,
            "most dual-predicted loads should select CAP, got {cap_share:.2}"
        );
    }

    #[test]
    fn selection_is_nearly_always_correct() {
        let (data, _) = run(&Scale::tiny());
        let rate = data
            .hybrid
            .suite_mean(PredictorStats::correct_selection_rate);
        assert!(rate > 0.98, "correct selection {rate:.4} too low");
    }

    #[test]
    fn distributions_sum_to_one_when_nonempty() {
        let (data, _) = run(&Scale::tiny());
        for suite in Suite::ALL {
            let d = data.state_distribution(suite);
            let sum: f64 = d.iter().sum();
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-9);
        }
    }
}
