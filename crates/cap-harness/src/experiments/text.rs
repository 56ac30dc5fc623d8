//! In-text results that are tables in all but name:
//!
//! * **coverage** (§1): last-address predictors handle ~40% of loads,
//!   stride adds ~13% more.
//! * **lt-sweep** (§4.2): hybrid prediction rate grows from ~63% at a
//!   1K-entry LT to ~68% at 8K; LT associativity has low impact.
//! * **update-policy** (§4.3): *update always* slightly beats the two
//!   selective policies.
//! * **control-based** (§3.6): g-share and call-path address predictors
//!   perform poorly relative to CAP.
//! * **pollution** (§3.5): PF bits protect the LT from irregular loads.

use super::ExperimentReport;
use crate::runner::{run_suite_sweep, PredictorFactory, Scale, SuiteResults};
use crate::table::{pct, pct2, Table};
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::control_based::{ControlBasedConfig, ControlBasedPredictor, ControlIndex};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor, LtUpdatePolicy};
use cap_predictor::link_table::PfMode;
use cap_predictor::load_buffer::LoadBufferConfig;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::stride::{StrideParams, StridePredictor};

/// §1 coverage: last-address vs plain stride vs enhanced stride.
#[must_use]
pub fn coverage(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    let factories = [
        PredictorFactory::last_address(),
        PredictorFactory::new("plain-stride", || {
            StridePredictor::new(LoadBufferConfig::paper_default(), StrideParams::plain())
        }),
        PredictorFactory::enhanced_stride(),
        PredictorFactory::cap(),
        PredictorFactory::hybrid(),
    ];
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "predictor".into(),
        "correct spec / loads".into(),
        "prediction rate".into(),
        "accuracy".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::correct_spec_rate)),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
            pct2(r.suite_mean(PredictorStats::accuracy)),
        ]);
    }
    let report = ExperimentReport {
        id: "text-coverage",
        title: "Coverage of the prior-art and proposed predictors (§1)".into(),
        tables: vec![("suite-mean coverage".into(), table)],
        notes: vec![
            "paper: last-address ~40% of loads; stride ~+13% more (~53%)".into(),
            "paper: CAP ~61%, hybrid ~67%".into(),
        ],
    };
    (results, report)
}

/// §4.2 LT size sweep (and associativity check).
#[must_use]
pub fn lt_sweep(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    const SIZES: [usize; 4] = [1024, 2048, 4096, 8192];
    let mut factories: Vec<PredictorFactory> = SIZES
        .iter()
        .map(|&entries| {
            PredictorFactory::new(&format!("LT {}K", entries / 1024), move || {
                let mut cfg = HybridConfig::paper_default();
                cfg.lt.entries = entries;
                cfg.cap.history.index_bits = entries.trailing_zeros();
                HybridPredictor::new(cfg)
            })
        })
        .collect();
    factories.push(PredictorFactory::new("LT 4K 2-way", || {
        let mut cfg = HybridConfig::paper_default();
        cfg.lt.assoc = 2;
        cfg.cap.history.index_bits = 11; // 2048 sets
        HybridPredictor::new(cfg)
    }));
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "LT configuration".into(),
        "hybrid prediction rate".into(),
        "accuracy".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
            pct2(r.suite_mean(PredictorStats::accuracy)),
        ]);
    }
    let report = ExperimentReport {
        id: "text-lt-sweep",
        title: "Hybrid prediction rate vs Link Table size (§4.2)".into(),
        tables: vec![("LT sweep".into(), table)],
        notes: vec![
            "paper: ~63% at 1K entries rising steadily to ~68% at 8K".into(),
            "paper: LT associativity has low impact (even history distribution)".into(),
        ],
    };
    (results, report)
}

/// §4.3 LT update policies.
#[must_use]
pub fn update_policy(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    let policies = [
        ("always", LtUpdatePolicy::Always),
        ("unless stride correct", LtUpdatePolicy::UnlessStrideCorrect),
        (
            "unless stride correct+selected",
            LtUpdatePolicy::UnlessStrideCorrectAndSelected,
        ),
    ];
    let factories: Vec<PredictorFactory> = policies
        .iter()
        .map(|&(label, policy)| {
            PredictorFactory::new(label, move || {
                let mut cfg = HybridConfig::paper_default();
                cfg.lt_update = policy;
                HybridPredictor::new(cfg)
            })
        })
        .collect();
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "update policy".into(),
        "prediction rate".into(),
        "accuracy".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
            pct2(r.suite_mean(PredictorStats::accuracy)),
        ]);
    }
    let report = ExperimentReport {
        id: "text-update-policy",
        title: "LT update policy comparison (§4.3)".into(),
        tables: vec![("policies".into(), table)],
        notes: vec![
            "paper: 'update always' gives slightly better results on almost all traces".into(),
        ],
    };
    (results, report)
}

/// §3.6 control-based address predictors (negative result).
#[must_use]
pub fn control_based(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    let factories = [
        PredictorFactory::new("gshare-address", || {
            ControlBasedPredictor::new(ControlBasedConfig {
                index: ControlIndex::GShare,
                ..ControlBasedConfig::default()
            })
        }),
        PredictorFactory::new("callpath-address", || {
            ControlBasedPredictor::new(ControlBasedConfig {
                index: ControlIndex::CallPath,
                ..ControlBasedConfig::default()
            })
        }),
        PredictorFactory::cap(),
    ];
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "predictor".into(),
        "correct spec / loads".into(),
        "prediction rate".into(),
    ]);
    for r in &results {
        table.add_row(vec![
            r.name.clone(),
            pct(r.suite_mean(PredictorStats::correct_spec_rate)),
            pct(r.suite_mean(PredictorStats::prediction_rate)),
        ]);
    }
    let report = ExperimentReport {
        id: "text-control-based",
        title: "Control-based address predictors (§3.6, negative result)".into(),
        tables: vec![("control-based vs CAP".into(), table)],
        notes: vec![
            "paper: loads are poorly correlated to individual branches; path history is better but still no substitute for CAP".into(),
        ],
    };
    (results, report)
}

/// §3.5 pollution-free bits ablation.
#[must_use]
pub fn pollution(scale: &Scale) -> (Vec<SuiteResults>, ExperimentReport) {
    let modes = [
        ("PF off", PfMode::Off),
        ("PF inline", PfMode::Inline),
        (
            "PF decoupled",
            PfMode::Decoupled {
                extra_index_bits: 2,
            },
        ),
    ];
    let factories: Vec<PredictorFactory> = modes
        .iter()
        .map(|&(label, mode)| {
            PredictorFactory::new(label, move || {
                let mut cfg = CapConfig::paper_default();
                cfg.lt.pf_mode = mode;
                CapPredictor::new(cfg)
            })
        })
        .collect();
    let results = run_suite_sweep(scale, &factories, 0);
    let mut table = Table::new(vec![
        "PF mode".into(),
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
        id: "text-pollution",
        title: "Pollution-free bits ablation (§3.5)".into(),
        tables: vec![("PF modes".into(), table)],
        notes: vec![
            "paper: PF bits keep irregular and over-long sequences from evicting useful links, at the cost of longer training".into(),
        ],
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;

    #[test]
    fn coverage_ordering_matches_paper() {
        let (results, _) = coverage(&Scale::tiny());
        let rate = |i: usize| results[i].suite_mean(PredictorStats::correct_spec_rate);
        let last = rate(0);
        let enhanced = rate(2);
        let hybrid = rate(4);
        assert!(
            last > 0.15,
            "last-address must cover a real fraction: {last:.3}"
        );
        assert!(
            enhanced > last,
            "stride must add coverage over last-address"
        );
        assert!(hybrid > enhanced, "hybrid must add coverage over stride");
    }

    #[test]
    fn lt_growth_helps() {
        let (results, _) = lt_sweep(&Scale::tiny());
        let r1k = results[0].suite_mean(PredictorStats::prediction_rate);
        let r8k = results[3].suite_mean(PredictorStats::prediction_rate);
        assert!(r8k > r1k, "8K LT {r8k:.3} must beat 1K {r1k:.3}");
    }

    #[test]
    fn control_based_is_poor() {
        let (results, _) = control_based(&Scale::tiny());
        let gshare = results[0].suite_mean(PredictorStats::correct_spec_rate);
        let cap = results[2].suite_mean(PredictorStats::correct_spec_rate);
        assert!(
            cap > gshare + 0.1,
            "CAP {cap:.3} must clearly beat gshare-address {gshare:.3}"
        );
    }

    #[test]
    fn update_policy_reports_three_rows() {
        let (_, report) = update_policy(&Scale::tiny());
        assert_eq!(report.table("policies").len(), 3);
    }

    #[test]
    fn pf_protects_against_pollution() {
        let (results, _) = pollution(&Scale::tiny());
        let off = results[0].suite_mean(PredictorStats::correct_spec_rate);
        let inline = results[1].suite_mean(PredictorStats::correct_spec_rate);
        assert!(
            inline >= off - 0.02,
            "PF must not cost coverage: {inline:.3} vs {off:.3}"
        );
    }
}
