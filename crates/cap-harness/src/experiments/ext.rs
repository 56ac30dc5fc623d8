//! Extension experiments: the alternatives the paper discusses but rejects
//! (§1 value prediction, §3.3 delta correlation, §3.6 control-based) and
//! the future-work directions it proposes (§6 variable history length,
//! profile feedback).
//!
//! None of these are tables in the paper; they make the paper's *arguments*
//! measurable.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, pct2, Table};
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::delta::{DeltaCapConfig, DeltaCapPredictor};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::last_addr::LastAddressPredictor;
use cap_predictor::link_table::LinkTableConfig;
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::profile::{ProfileGuidedPredictor, Profiler};
use cap_predictor::stride::{StrideParams, StridePredictor};
use cap_predictor::types::AddressPredictor;
use cap_predictor::variable::{VariableHistoryCap, VariableHistoryConfig};
use cap_trace::suites::Suite;

/// Rows of a core-timing comparison: workload name, baseline IPC, variant
/// IPC, speedup, and the variant's prediction rate.
pub type CoreCompareRows = Vec<(String, f64, f64, f64, f64)>;

/// Constructor of a boxed predictor, for name→factory tables.
type PredictorCtor = fn() -> Box<dyn AddressPredictor>;

/// §3.3 — base-address CAP vs the rejected delta-correlation variant.
#[must_use]
pub fn delta_correlation(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    let factories = [
        PredictorFactory::cap(),
        PredictorFactory::new("delta-cap", || {
            DeltaCapPredictor::new(DeltaCapConfig::paper_default())
        }),
    ];
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "scheme".into(),
        "prediction rate".into(),
        "correct spec / loads".into(),
        "accuracy".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
            pct(r.suite_mean(PredictorStats::correct_spec_rate)),
            pct2(r.suite_mean(PredictorStats::accuracy)),
        ]);
    }
    let report = ExperimentReport {
        id: "ext-delta",
        title: "Base-address vs delta correlation (§3.3)".into(),
        tables: vec![("delta-correlation trade-off".into(), table)],
        notes: vec![
            "paper: deltas exploit 'any kind of global correlation' but suffer false-correlation aliasing — 'less attractive'".into(),
        ],
    };
    (results, report)
}

/// §6 — variable history length vs fixed lengths.
#[must_use]
pub fn variable_history(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    fn fixed(length: usize) -> PredictorFactory {
        PredictorFactory::new(&format!("fixed-{length}"), move || {
            let mut cfg = CapConfig::paper_default();
            cfg.params.history.length = length;
            CapPredictor::new(cfg)
        })
    }
    let factories = [
        fixed(2),
        fixed(4),
        PredictorFactory::new("variable-2/4", || {
            VariableHistoryCap::new(VariableHistoryConfig::paper_default())
        }),
    ];
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "history scheme".into(),
        "prediction rate".into(),
        "correct spec / loads".into(),
        "accuracy".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
            pct(r.suite_mean(PredictorStats::correct_spec_rate)),
            pct2(r.suite_mean(PredictorStats::accuracy)),
        ]);
    }
    let report = ExperimentReport {
        id: "ext-variable-history",
        title: "Variable history length (§6 future work, TAGE-style)".into(),
        tables: vec![("fixed vs variable context lengths".into(), table)],
        notes: vec![
            "longest-match over short+long tables combines fast warm-up with run disambiguation"
                .into(),
        ],
    };
    (results, report)
}

/// §6 — profile-guided (software-assisted) prediction at small table sizes.
///
/// Runs each trace twice: a profiling pass classifies its static loads,
/// then the guided predictor uses the classification. Comparison point: an
/// unassisted hybrid at the *same reduced* table sizes.
#[must_use]
pub fn profile_guided(scale: &Scale) -> (Vec<(String, f64, f64)>, ExperimentReport) {
    const LB: usize = 1024;
    const LT: usize = 1024;
    let small_hybrid = || {
        let mut cfg = HybridConfig::paper_default();
        cfg.lb.entries = LB;
        cfg.lt.entries = LT;
        cfg.cap.history.index_bits = 10;
        HybridPredictor::new(cfg)
    };
    let mut rows = Vec::new();
    let mut plain_total = PredictorStats::new();
    let mut guided_total = PredictorStats::new();
    for suite in Suite::ALL {
        let mut plain_suite = PredictorStats::new();
        let mut guided_suite = PredictorStats::new();
        let take = scale.traces_per_suite.unwrap_or(usize::MAX);
        for spec in suite.traces().into_iter().take(take) {
            let trace = spec.generate(scale.loads_per_trace);
            let mut plain = small_hybrid();
            plain_suite.merge(&Session::new(&mut plain).run(&trace));

            let classes = Profiler::profile_trace(&trace);
            let mut guided = ProfileGuidedPredictor::new(
                classes,
                LoadBufferConfig {
                    entries: LB,
                    assoc: 2,
                },
                LinkTableConfig {
                    entries: LT,
                    ..LinkTableConfig::paper_default()
                },
                {
                    let mut p = cap_predictor::cap::CapParams::paper_default();
                    p.history.index_bits = 10;
                    p
                },
                StrideParams::paper_default(),
            );
            guided_suite.merge(&Session::new(&mut guided).run(&trace));
        }
        rows.push((
            suite.name().to_owned(),
            plain_suite.correct_spec_rate(),
            guided_suite.correct_spec_rate(),
        ));
        plain_total.merge(&plain_suite);
        guided_total.merge(&guided_suite);
    }
    let mut table = Table::new(vec![
        "suite".into(),
        "plain hybrid (1K/1K)".into(),
        "profile-guided (1K/1K)".into(),
    ]);
    for (name, plain, guided) in &rows {
        table.add_row(vec![name.clone(), pct(*plain), pct(*guided)]);
    }
    table.add_row(vec![
        "Overall".into(),
        pct(plain_total.correct_spec_rate()),
        pct(guided_total.correct_spec_rate()),
    ]);
    let report = ExperimentReport {
        id: "ext-profile",
        title: "Profile feedback / software assist (§6 future work)".into(),
        tables: vec![("correct spec accesses / loads at reduced table sizes".into(), table)],
        notes: vec![
            "classification keeps unknown loads out of the tables: less pollution, smaller tables suffice".into(),
        ],
    };
    (rows, report)
}

/// §1.1 \[Gonz97\] — sharing the stride prediction structures for data
/// prefetching: the projected next-invocation line is pulled into the
/// cache in the background whenever a confident stride prediction is made.
#[must_use]
pub fn prefetch(scale: &Scale) -> (CoreCompareRows, ExperimentReport) {
    use cap_uarch::core::{run_trace, CoreConfig};
    let base_core = CoreConfig::paper_default();
    let mut pf_core = CoreConfig::paper_default();
    pf_core.prefetch = true;
    let mut rows = Vec::new();
    for suite in Suite::ALL {
        let take = scale.traces_per_suite.unwrap_or(usize::MAX).min(2);
        let mut speedup_plain = 0.0;
        let mut speedup_pf = 0.0;
        let mut l1_plain = 0.0;
        let mut l1_pf = 0.0;
        let mut n = 0;
        for spec in suite.traces().into_iter().take(take) {
            let trace = spec.generate(scale.loads_per_trace);
            let baseline = run_trace(&trace, &base_core, None, 0);
            let mut p1 = HybridPredictor::new(HybridConfig::paper_default());
            let plain = run_trace(&trace, &base_core, Some(&mut p1), 0);
            let mut p2 = HybridPredictor::new(HybridConfig::paper_default());
            let with_pf = run_trace(&trace, &pf_core, Some(&mut p2), 0);
            speedup_plain += plain.speedup_over(&baseline).ln();
            speedup_pf += with_pf.speedup_over(&baseline).ln();
            l1_plain += plain.l1_hit_rate;
            l1_pf += with_pf.l1_hit_rate;
            n += 1;
        }
        let n = n as f64;
        rows.push((
            suite.name().to_owned(),
            (speedup_plain / n).exp(),
            (speedup_pf / n).exp(),
            l1_plain / n,
            l1_pf / n,
        ));
    }
    let mut table = Table::new(vec![
        "suite".into(),
        "speedup".into(),
        "speedup +prefetch".into(),
        "L1 hit".into(),
        "L1 hit +prefetch".into(),
    ]);
    for (name, s, spf, l1, l1pf) in &rows {
        table.add_row(vec![
            name.clone(),
            format!("{s:.3}"),
            format!("{spf:.3}"),
            pct(*l1),
            pct(*l1pf),
        ]);
    }
    let report = ExperimentReport {
        id: "ext-prefetch",
        title: "Shared stride structures for prefetching (\\[Gonz97\\], §1.1)".into(),
        tables: vec![("hybrid vs hybrid+prefetch".into(), table)],
        notes: vec![
            "prefetching the projected next invocation raises L1 hit rates on stride-heavy suites on top of address prediction".into(),
        ],
    };
    (rows, report)
}

/// §5.4 — speculative control flow: wrong-path pollution with and without
/// reorder-buffer-like predictor state recovery.
#[must_use]
pub fn wrong_path(scale: &Scale) -> (CoreCompareRows, ExperimentReport) {
    let mut rows = Vec::new();
    for suite in Suite::ALL {
        let take = scale.traces_per_suite.unwrap_or(usize::MAX).min(2);
        let mut rec = PredictorStats::new();
        let mut norec = PredictorStats::new();
        for spec in suite.traces().into_iter().take(take) {
            let trace = spec.generate(scale.loads_per_trace);
            let mut a = HybridPredictor::new(HybridConfig::paper_default());
            // Perfect recovery undoes the wrong path: a clean session.
            rec.merge(&Session::new(&mut a).run(&trace));
            let mut b = HybridPredictor::new(HybridConfig::paper_default());
            norec.merge(&Session::new(&mut b).wrong_path(8).run(&trace));
        }
        rows.push((
            suite.name().to_owned(),
            rec.correct_spec_rate(),
            norec.correct_spec_rate(),
            rec.accuracy(),
            norec.accuracy(),
        ));
    }
    let mut table = Table::new(vec![
        "suite".into(),
        "correct/loads (recovery)".into(),
        "correct/loads (no recovery)".into(),
        "accuracy (recovery)".into(),
        "accuracy (no recovery)".into(),
    ]);
    for (name, r, n, ra, na) in &rows {
        table.add_row(vec![name.clone(), pct(*r), pct(*n), pct2(*ra), pct2(*na)]);
    }
    let report = ExperimentReport {
        id: "ext-wrongpath",
        title: "Wrong-path pollution and predictor state recovery (§5.4)".into(),
        tables: vec![("8% branch mispredictions, 6 wrong-path loads each".into(), table)],
        notes: vec![
            "paper: 'a reorder buffer-like or history buffer recovery mechanism is required to prevent destructive updates'".into(),
        ],
    };
    (rows, report)
}

/// §1 — value predictability vs address predictability.
#[must_use]
pub fn value_vs_address(scale: &Scale) -> (Vec<(String, f64, f64)>, ExperimentReport) {
    let make: [(&str, PredictorCtor); 3] = [
        ("last", || {
            Box::new(LastAddressPredictor::new(LoadBufferConfig::paper_default()))
        }),
        ("stride", || {
            Box::new(StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(),
            ))
        }),
        ("context (CAP)", || {
            let mut cfg = CapConfig::paper_default();
            cfg.params.global_correlation = false; // values have no offsets
            Box::new(CapPredictor::new(cfg))
        }),
    ];
    let mut rows = Vec::new();
    for (name, factory) in make {
        let mut addr = PredictorStats::new();
        let mut value = PredictorStats::new();
        for suite in Suite::ALL {
            let take = scale.traces_per_suite.unwrap_or(usize::MAX);
            for spec in suite.traces().into_iter().take(take) {
                let trace = spec.generate(scale.loads_per_trace);
                let mut pa = factory();
                addr.merge(&Session::new(pa.as_mut()).run(&trace));
                let mut pv = factory();
                value.merge(&Session::new(pv.as_mut()).values(true).run(&trace));
            }
        }
        rows.push((
            name.to_owned(),
            addr.correct_spec_rate(),
            value.correct_spec_rate(),
        ));
    }
    let mut table = Table::new(vec![
        "predictor".into(),
        "address stream".into(),
        "value stream".into(),
    ]);
    for (name, a, v) in &rows {
        table.add_row(vec![name.clone(), pct(*a), pct(*v)]);
    }
    let report = ExperimentReport {
        id: "ext-value",
        title: "Value vs address predictability (§1)".into(),
        tables: vec![("correct spec accesses / loads".into(), table)],
        notes: vec![
            "paper: 'load-value prediction may be used as an alternate option … however, its lower predictability makes this option less attractive'".into(),
        ],
    };
    (rows, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale::tiny()
    }

    #[test]
    fn delta_scheme_is_less_attractive_overall() {
        // The paper rejects deltas for their *aliasing* (false global
        // correlation), which manifests as a worse misprediction rate —
        // coverage can even be higher because deltas subsume strides.
        let (results, _) = delta_correlation(&tiny());
        let base_acc = results[0].suite_mean(PredictorStats::accuracy);
        let delta_acc = results[1].suite_mean(PredictorStats::accuracy);
        assert!(
            base_acc > delta_acc,
            "base addresses must be more accurate than deltas: {base_acc:.4} vs {delta_acc:.4}"
        );
    }

    #[test]
    fn variable_history_is_competitive_with_best_fixed() {
        let (results, _) = variable_history(&tiny());
        let fixed2 = results[0].suite_mean(PredictorStats::correct_spec_rate);
        let fixed4 = results[1].suite_mean(PredictorStats::correct_spec_rate);
        let variable = results[2].suite_mean(PredictorStats::correct_spec_rate);
        let best_fixed = fixed2.max(fixed4);
        assert!(
            variable > best_fixed - 0.05,
            "variable ({variable:.3}) must be competitive with best fixed ({best_fixed:.3})"
        );
    }

    #[test]
    fn profile_guidance_helps_small_tables() {
        let (rows, _) = profile_guided(&tiny());
        let plain: f64 = rows.iter().map(|r| r.1).sum::<f64>() / rows.len() as f64;
        let guided: f64 = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
        assert!(
            guided > plain - 0.05,
            "guided ({guided:.3}) must not lose badly to plain ({plain:.3}) at small sizes"
        );
    }

    #[test]
    fn wrong_path_recovery_preserves_coverage() {
        let (rows, _) = wrong_path(&tiny());
        let rec: f64 = rows.iter().map(|r| r.1).sum();
        let norec: f64 = rows.iter().map(|r| r.2).sum();
        assert!(
            rec > norec,
            "recovery must preserve coverage: {rec:.3} vs {norec:.3}"
        );
    }

    #[test]
    fn prefetching_helps_l1_and_never_hurts_speedup_much() {
        let (rows, _) = prefetch(&tiny());
        for (name, s, spf, l1, l1pf) in &rows {
            assert!(
                l1pf >= l1,
                "{name}: prefetch must not lower L1 hit rate ({l1pf:.3} vs {l1:.3})"
            );
            assert!(
                *spf > s - 0.03,
                "{name}: prefetch must not cost speedup ({spf:.3} vs {s:.3})"
            );
        }
        // At least one suite must clearly gain L1 hit rate.
        assert!(rows.iter().any(|r| r.4 > r.3 + 0.02));
    }

    #[test]
    fn values_are_less_predictable_than_addresses() {
        let (rows, _) = value_vs_address(&tiny());
        // Stride and context predictors must gain much more on addresses
        // than on values (rows 1 and 2); the last-value row can tie since
        // recurring null pointers make values locally predictable.
        for (name, addr, value) in &rows[1..] {
            assert!(
                addr > value,
                "{name}: addresses ({addr:.3}) must beat values ({value:.3})"
            );
        }
        let best_addr = rows.iter().map(|r| r.1).fold(f64::MIN, f64::max);
        let best_value = rows.iter().map(|r| r.2).fold(f64::MIN, f64::max);
        assert!(
            best_addr > best_value + 0.05,
            "best address predictor ({best_addr:.3}) must clearly beat best value predictor ({best_value:.3})"
        );
    }
}
