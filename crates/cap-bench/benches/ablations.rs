//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * shift amount `m` of the shift(m)-xor history folding,
//! * pollution-free bits on/off under irregular traffic,
//! * saturating-counter threshold / hysteresis,
//! * static vs dynamic hybrid selection,
//! * base-address (global correlation) vs full-address recording.
//!
//! Each group times the sweep and prints the measured metric deltas so
//! bench logs double as ablation reports.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::runner::{run_suite_sweep, PredictorFactory, Scale};
use cap_predictor::cap::{CapConfig, CapPredictor};
use cap_predictor::hybrid::{HybridConfig, HybridPredictor, SelectorPolicy};
use cap_predictor::link_table::PfMode;
use cap_predictor::metrics::PredictorStats;

fn sweep_and_print(scale: &Scale, title: &str, factories: Vec<PredictorFactory>) {
    let results = run_suite_sweep(scale, &factories, 0);
    println!("-- ablation: {title} --");
    for r in &results {
        println!(
            "  {:<24} rate {:5.1}%  correct/loads {:5.1}%  accuracy {:6.2}%",
            r.name,
            100.0 * r.suite_mean(PredictorStats::prediction_rate),
            100.0 * r.suite_mean(PredictorStats::correct_spec_rate),
            100.0 * r.suite_mean(PredictorStats::accuracy),
        );
    }
}

fn shift_factories() -> Vec<PredictorFactory> {
    [1u32, 2, 3, 5, 8]
        .into_iter()
        .map(|m| {
            PredictorFactory::new(&format!("shift-{m}"), move || {
                let mut cfg = CapConfig::paper_default();
                cfg.params.history.shift = m;
                CapPredictor::new(cfg)
            })
        })
        .collect()
}

fn pf_factories() -> Vec<PredictorFactory> {
    vec![
        PredictorFactory::new("pf-off", || {
            let mut cfg = CapConfig::paper_default();
            cfg.lt.pf_mode = PfMode::Off;
            CapPredictor::new(cfg)
        }),
        PredictorFactory::new(
            "pf-inline",
            || CapPredictor::new(CapConfig::paper_default()),
        ),
    ]
}

fn threshold_factories() -> Vec<PredictorFactory> {
    [(2u8, false), (3, false), (2, true), (3, true)]
        .into_iter()
        .map(|(t, h)| {
            PredictorFactory::new(
                &format!("thr{t}{}", if h { "+hyst" } else { "" }),
                move || {
                    let mut cfg = CapConfig::paper_default();
                    cfg.params.conf_threshold = t;
                    cfg.params.hysteresis = h;
                    CapPredictor::new(cfg)
                },
            )
        })
        .collect()
}

fn selector_factories() -> Vec<PredictorFactory> {
    [
        ("dynamic", SelectorPolicy::Dynamic),
        ("static-stride", SelectorPolicy::StaticStride),
        ("static-cap", SelectorPolicy::StaticCap),
    ]
    .into_iter()
    .map(|(name, policy)| {
        PredictorFactory::new(name, move || {
            let mut cfg = HybridConfig::paper_default();
            cfg.selector = policy;
            HybridPredictor::new(cfg)
        })
    })
    .collect()
}

fn correlation_factories() -> Vec<PredictorFactory> {
    [("base-addr", true), ("full-addr", false)]
        .into_iter()
        .map(|(name, gc)| {
            PredictorFactory::new(name, move || {
                let mut cfg = CapConfig::paper_default();
                cfg.params.global_correlation = gc;
                CapPredictor::new(cfg)
            })
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.bench_function("history_shift", |b| {
        b.iter(|| run_suite_sweep(&scale, &shift_factories(), 0));
    });
    group.bench_function("pf_bits", |b| {
        b.iter(|| run_suite_sweep(&scale, &pf_factories(), 0));
    });
    group.bench_function("conf_threshold", |b| {
        b.iter(|| run_suite_sweep(&scale, &threshold_factories(), 0));
    });
    group.bench_function("selector_policy", |b| {
        b.iter(|| run_suite_sweep(&scale, &selector_factories(), 0));
    });
    group.bench_function("global_correlation", |b| {
        b.iter(|| run_suite_sweep(&scale, &correlation_factories(), 0));
    });
    group.finish();

    sweep_and_print(&scale, "history shift m", shift_factories());
    sweep_and_print(&scale, "pollution-free bits", pf_factories());
    sweep_and_print(
        &scale,
        "confidence threshold/hysteresis",
        threshold_factories(),
    );
    sweep_and_print(&scale, "selector policy", selector_factories());
    sweep_and_print(&scale, "global correlation", correlation_factories());
}

cap_bench::bench_main!(bench);
