//! Shared experiment plumbing: scales, predictor factories, and
//! suite-level sweeps.

use cap_predictor::drive::Session;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::prelude::*;
use cap_trace::suites::{Suite, TraceSpec};
use cap_uarch::core::{run_trace, CoreConfig, CoreStats};
use std::collections::BTreeMap;

/// How much work an experiment does; every experiment accepts one so the
/// CLI runs at full fidelity while tests and benches run scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Dynamic loads generated per trace.
    pub loads_per_trace: usize,
    /// Limit on traces taken from each suite (`None` = all).
    pub traces_per_suite: Option<usize>,
}

impl Scale {
    /// Full fidelity (the `repro` binary's default).
    #[must_use]
    pub fn full() -> Self {
        Self {
            loads_per_trace: 200_000,
            traces_per_suite: None,
        }
    }

    /// Reduced scale for Criterion benches.
    #[must_use]
    pub fn bench() -> Self {
        Self {
            loads_per_trace: 20_000,
            traces_per_suite: Some(2),
        }
    }

    /// Minimal scale for integration tests.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            loads_per_trace: 6_000,
            traces_per_suite: Some(1),
        }
    }

    /// The catalog subset selected by this scale, grouped in suite order.
    #[must_use]
    pub fn traces(&self) -> Vec<TraceSpec> {
        let mut out = Vec::new();
        for suite in Suite::ALL {
            let traces = suite.traces();
            let take = self.traces_per_suite.unwrap_or(traces.len());
            out.extend(traces.into_iter().take(take));
        }
        out
    }
}

/// A named way of constructing a fresh predictor.
pub struct PredictorFactory {
    /// Display name used in table headers.
    pub name: String,
    build: Box<dyn Fn() -> Box<dyn AddressPredictor>>,
}

impl std::fmt::Debug for PredictorFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorFactory")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl PredictorFactory {
    /// Wraps a constructor closure.
    pub fn new<P, F>(name: &str, f: F) -> Self
    where
        P: AddressPredictor + 'static,
        F: Fn() -> P + 'static,
    {
        Self {
            name: name.to_owned(),
            build: Box::new(move || Box::new(f())),
        }
    }

    /// Builds a fresh predictor.
    #[must_use]
    pub fn build(&self) -> Box<dyn AddressPredictor> {
        (self.build)()
    }

    /// The paper's enhanced stride predictor.
    #[must_use]
    pub fn enhanced_stride() -> Self {
        Self::new("stride", || {
            StridePredictor::new(
                LoadBufferConfig::paper_default(),
                StrideParams::paper_default(),
            )
        })
    }

    /// The paper's stand-alone CAP predictor.
    #[must_use]
    pub fn cap() -> Self {
        Self::new("cap", || CapPredictor::new(CapConfig::paper_default()))
    }

    /// The paper's hybrid CAP/enhanced-stride predictor.
    #[must_use]
    pub fn hybrid() -> Self {
        Self::new("hybrid", || {
            HybridPredictor::new(HybridConfig::paper_default())
        })
    }

    /// The last-address baseline.
    #[must_use]
    pub fn last_address() -> Self {
        Self::new("last-addr", || {
            LastAddressPredictor::new(LoadBufferConfig::paper_default())
        })
    }
}

/// Per-suite and overall results for one predictor configuration.
#[derive(Debug, Clone)]
pub struct SuiteResults {
    /// Configuration name.
    pub name: String,
    /// Accumulated statistics per suite.
    pub per_suite: BTreeMap<Suite, PredictorStats>,
    /// Statistics accumulated over every trace.
    pub overall: PredictorStats,
}

impl SuiteResults {
    fn new(name: String) -> Self {
        Self {
            name,
            per_suite: BTreeMap::new(),
            overall: PredictorStats::new(),
        }
    }

    /// Mean of a per-suite metric over the eight suites — the paper's
    /// "Average" columns average suites, not loads.
    pub fn suite_mean<F: Fn(&PredictorStats) -> f64>(&self, metric: F) -> f64 {
        if self.per_suite.is_empty() {
            return 0.0;
        }
        self.per_suite.values().map(&metric).sum::<f64>() / self.per_suite.len() as f64
    }
}

/// Runs each factory's predictor over the scaled suite catalog with the
/// given prediction gap (in dynamic instructions; `0` = immediate update).
///
/// Each trace is generated once and reused for every configuration.
pub fn run_suite_sweep(
    scale: &Scale,
    factories: &[PredictorFactory],
    gap: usize,
) -> Vec<SuiteResults> {
    let mut results: Vec<SuiteResults> = factories
        .iter()
        .map(|f| SuiteResults::new(f.name.clone()))
        .collect();
    for spec in scale.traces() {
        let trace = spec.generate(scale.loads_per_trace);
        for (factory, result) in factories.iter().zip(&mut results) {
            let mut predictor = factory.build();
            let stats = Session::new(predictor.as_mut()).gap(gap).run(&trace);
            result
                .per_suite
                .entry(spec.suite)
                .or_insert_with(PredictorStats::new)
                .merge(&stats);
            result.overall.merge(&stats);
        }
    }
    results
}

/// Timing (speedup) results for one trace.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Trace name.
    pub trace: String,
    /// Owning suite.
    pub suite: Suite,
    /// Baseline (no address prediction) run.
    pub baseline: CoreStats,
    /// One run per factory, in factory order.
    pub with_prediction: Vec<CoreStats>,
}

impl SpeedupRow {
    /// Speedup of configuration `i` over the no-prediction baseline.
    #[must_use]
    pub fn speedup(&self, i: usize) -> f64 {
        self.with_prediction[i].speedup_over(&self.baseline)
    }
}

/// Runs the timing core over the scaled catalog: once without prediction
/// and once per factory, all on identical traces.
pub fn run_speedup_sweep(
    scale: &Scale,
    factories: &[PredictorFactory],
    core: &CoreConfig,
    gap: usize,
) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for spec in scale.traces() {
        let trace = spec.generate(scale.loads_per_trace);
        let baseline = run_trace(&trace, core, None, 0);
        let with_prediction = factories
            .iter()
            .map(|f| {
                let mut p = f.build();
                run_trace(&trace, core, Some(p.as_mut()), gap)
            })
            .collect();
        rows.push(SpeedupRow {
            trace: spec.name.to_owned(),
            suite: spec.suite,
            baseline,
            with_prediction,
        });
    }
    rows
}

/// Geometric mean of per-trace speedups for configuration `i`, over all
/// rows (or a suite subset).
#[must_use]
pub fn geomean_speedup(rows: &[SpeedupRow], i: usize) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.speedup(i).ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_selects_one_trace_per_suite() {
        let traces = Scale::tiny().traces();
        assert_eq!(traces.len(), 8);
    }

    #[test]
    fn full_scale_selects_whole_catalog() {
        assert_eq!(Scale::full().traces().len(), 45);
    }

    #[test]
    fn sweep_populates_all_suites() {
        let scale = Scale {
            loads_per_trace: 2_000,
            traces_per_suite: Some(1),
        };
        let results = run_suite_sweep(&scale, &[PredictorFactory::hybrid()], 0);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].per_suite.len(), 8);
        assert!(results[0].overall.loads >= 8 * 2_000);
    }

    #[test]
    fn suite_mean_averages_suites() {
        let scale = Scale {
            loads_per_trace: 2_000,
            traces_per_suite: Some(1),
        };
        let results = run_suite_sweep(&scale, &[PredictorFactory::last_address()], 0);
        let mean = results[0].suite_mean(PredictorStats::prediction_rate);
        assert!(mean > 0.0 && mean < 1.0);
    }

    #[test]
    fn speedup_sweep_produces_sensible_ratios() {
        let scale = Scale {
            loads_per_trace: 3_000,
            traces_per_suite: Some(1),
        };
        let rows = run_speedup_sweep(
            &scale,
            &[PredictorFactory::hybrid()],
            &CoreConfig::paper_default(),
            0,
        );
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let s = r.speedup(0);
            assert!(
                s > 0.9 && s < 3.0,
                "{}: speedup {s:.3} out of range",
                r.trace
            );
        }
        let g = geomean_speedup(&rows, 0);
        assert!(g >= 1.0, "prediction should help on average, got {g:.3}");
    }
}
