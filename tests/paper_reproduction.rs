//! Cross-crate integration tests: every experiment regenerates with the
//! paper's qualitative shape at reduced scale.
//!
//! The full-scale numbers live in EXPERIMENTS.md; these tests pin the
//! *relationships* the paper reports — who wins, where the inversions are,
//! which direction each mechanism moves the metrics — so a regression in
//! any crate shows up as a shape violation here.

use cap_harness::experiments::{fig10, fig11, fig12, fig5, fig6, fig7, fig8, fig9, text};
use cap_harness::runner::Scale;
use cap_predictor::metrics::PredictorStats;
use cap_trace::suites::Suite;

fn scale() -> Scale {
    Scale {
        loads_per_trace: 8_000,
        traces_per_suite: Some(1),
    }
}

#[test]
fn fig5_orderings_and_mm_inversion() {
    let (data, _) = fig5::run(&scale());
    let rate =
        |r: &cap_harness::runner::SuiteResults| r.suite_mean(PredictorStats::prediction_rate);
    assert!(rate(data.hybrid()) > rate(data.cap()));
    assert!(rate(data.cap()) > rate(data.stride()));
    // MM is the one suite where the stride side dominates.
    assert!(
        data.stride().per_suite[&Suite::Mm].prediction_rate()
            > data.cap().per_suite[&Suite::Mm].prediction_rate()
    );
    // Hybrid accuracy in the paper's neighbourhood.
    assert!(data.hybrid().suite_mean(PredictorStats::accuracy) > 0.96);
}

#[test]
fn fig6_lb_size_and_associativity() {
    let (data, _) = fig6::run(&scale());
    let mean = |i: usize| data.results[i].suite_mean(PredictorStats::prediction_rate);
    // 2-way beats direct-mapped at 4K; 8K-2way >= 2K-2way.
    assert!(mean(2) >= mean(1), "4K2w {} vs 4K1w {}", mean(2), mean(1));
    assert!(mean(4) >= mean(0), "8K2w {} vs 2K2w {}", mean(4), mean(0));
    // Accuracy roughly flat: every config within 2 points of the baseline.
    let acc = |i: usize| data.results[i].suite_mean(PredictorStats::accuracy);
    for i in 0..5 {
        assert!((acc(i) - acc(2)).abs() < 0.02);
    }
}

#[test]
fn fig7_speedups_positive_and_ordered() {
    let (data, _) = fig7::run(&scale());
    assert!(
        data.hybrid_geomean() > 1.02,
        "hybrid {}",
        data.hybrid_geomean()
    );
    assert!(data.hybrid_geomean() >= data.stride_geomean());
    for row in &data.rows {
        assert!(row.speedup(1) > 0.95, "{} regressed", row.trace);
    }
}

#[test]
fn fig8_selector_is_nearly_perfect_and_cap_leaning() {
    let (data, _) = fig8::run(&scale());
    assert!(
        data.hybrid
            .suite_mean(PredictorStats::correct_selection_rate)
            > 0.985
    );
    assert!(data.dual_predicted_fraction() > 0.5);
}

#[test]
fn fig9_correlation_and_history_length() {
    // History-length effects need warm tables; use a larger scale here.
    let (data, _) = fig9::run(&Scale {
        loads_per_trace: 25_000,
        traces_per_suite: Some(1),
    });
    // Correlation helps at every history length (worth ~10% in the paper).
    for (i, (w, wo)) in data
        .with_correlation
        .iter()
        .zip(&data.without_correlation)
        .enumerate()
    {
        assert!(
            w > wo,
            "correlation must help at length index {i}: {w} vs {wo}"
        );
    }
    // Very long histories are never the optimum.
    assert!(data.best_length_with() < 12);
    assert!(data.best_length_without() < 12);
}

#[test]
fn fig10_tags_trade_tiny_rate_for_large_accuracy() {
    let (data, _) = fig10::run(&scale());
    let (rate_no, mis_no) = data.rates[0];
    let (rate_tagged, mis_tagged) = data.rates[2];
    assert!(mis_tagged < mis_no, "tags must reduce mispredictions");
    assert!(rate_tagged > rate_no - 0.08, "tags must cost little rate");
    // Path indications only help on top of tags.
    assert!(data.rates[4].1 <= data.rates[2].1 + 1e-9);
}

#[test]
fn fig11_gap_costs_accuracy_more_than_rate() {
    let (data, _) = fig11::run(&scale());
    let (rate0, acc0) = data.hybrid_point(0);
    let (rate2, acc2) = data.hybrid_point(2);
    assert!(rate2 < rate0);
    assert!(acc2 < acc0);
    // The hybrid must stay ahead of stride under the gap.
    assert!(data.hybrid_point(2).0 > data.stride_point(2).0);
}

#[test]
fn fig12_gapped_speedup_survives() {
    let (data, _) = fig12::run(&scale());
    let imm = data.overall_speedup(1, false);
    let gap = data.overall_speedup(1, true);
    assert!(gap > 1.0, "gapped hybrid must still speed up: {gap}");
    assert!(gap <= imm + 1e-9);
}

#[test]
fn text_tables_reproduce_headlines() {
    let s = scale();
    // §1 coverage ordering: last-address < enhanced stride < hybrid.
    let (cov, _) = text::coverage(&s);
    let rate = |i: usize| cov[i].suite_mean(PredictorStats::correct_spec_rate);
    assert!(rate(0) > 0.15, "last-address covers a real fraction");
    assert!(rate(2) > rate(0));
    assert!(rate(4) > rate(2));

    // §4.2: LT growth helps.
    let (lt, _) = text::lt_sweep(&s);
    assert!(
        lt[3].suite_mean(PredictorStats::prediction_rate)
            > lt[0].suite_mean(PredictorStats::prediction_rate)
    );

    // §3.6: control-based predictors are no substitute for CAP.
    let (cb, _) = text::control_based(&s);
    assert!(
        cb[2].suite_mean(PredictorStats::correct_spec_rate)
            > cb[0].suite_mean(PredictorStats::correct_spec_rate) + 0.1
    );
}
