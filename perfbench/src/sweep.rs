//! One trace's figure pass: the four `drive::Session` configurations
//! `repro` sweeps, then the timing core without and with the hybrid.
//!
//! Every predictor comes from `PredictorFactory`, so the benchmark names
//! neither hybrid implementation and survives the deletion of either.
//! The gap-8 configuration therefore runs the factory's hybrid
//! (`HybridConfig::paper_default`): no stable entry point builds
//! `HybridConfig::paper_pipelined`, which only the twins' constructors
//! take.

use cap_harness::runner::PredictorFactory;
use cap_predictor::drive::Session;
use cap_predictor::metrics::PredictorStats;
use cap_trace::suites::Suite;
use cap_trace::Trace;
use cap_uarch::core::{run_trace, CoreConfig, CoreStats};
use std::hint::black_box;
use std::time::Instant;

/// Names of the Session configurations, in sweep order.
pub const CONFIGS: [&str; 4] = ["stride", "cap", "hybrid", "hybrid_gap8"];

/// Index of the immediate-update hybrid in [`CONFIGS`].
pub const HYBRID: usize = 2;

/// Prediction gap of the `hybrid_gap8` configuration, in instructions.
const PIPELINE_GAP: usize = 8;

/// A predictor constructor plus the gap it runs at.
pub struct Config {
    /// Fresh-predictor constructor.
    pub factory: PredictorFactory,
    /// Session prediction gap (0 = immediate update).
    pub gap: usize,
}

/// The four configurations of [`CONFIGS`].
#[must_use]
pub fn configs() -> Vec<Config> {
    vec![
        Config {
            factory: PredictorFactory::enhanced_stride(),
            gap: 0,
        },
        Config {
            factory: PredictorFactory::cap(),
            gap: 0,
        },
        Config {
            factory: PredictorFactory::hybrid(),
            gap: 0,
        },
        Config {
            factory: PredictorFactory::hybrid(),
            gap: PIPELINE_GAP,
        },
    ]
}

/// The simulated (deterministic) part of one timing-core run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSim {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// L1 hit rate, as raw bits so equality is exact.
    pub l1_hit_bits: u64,
}

impl From<&CoreStats> for CoreSim {
    fn from(s: &CoreStats) -> Self {
        Self {
            cycles: s.cycles,
            instructions: s.instructions,
            l1_hit_bits: s.l1_hit_rate.to_bits(),
        }
    }
}

/// Everything one figure pass simulates; identical on every pass of
/// the same trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Simulated {
    /// Session statistics per configuration, [`CONFIGS`] order.
    pub stats: [PredictorStats; 4],
    /// Timing core without address prediction.
    pub base: CoreSim,
    /// Timing core with the hybrid.
    pub hybrid: CoreSim,
}

/// Host time of one figure pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Host {
    /// Per Session configuration.
    pub session: [f64; 4],
    /// Timing core without prediction.
    pub base: f64,
    /// Timing core with the hybrid.
    pub hybrid: f64,
}

impl Host {
    /// Host time of the whole pass.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.session.iter().sum::<f64>() + self.base + self.hybrid
    }
}

/// Runs one trace's figure pass.
#[must_use]
pub fn pass(trace: &Trace, configs: &[Config], core: &CoreConfig) -> (Simulated, Host) {
    let mut host = Host::default();
    let mut stats = [PredictorStats::new(); 4];
    for (i, c) in configs.iter().enumerate() {
        let mut p = c.factory.build();
        let t0 = Instant::now();
        stats[i] = black_box(Session::new(p.as_mut()).gap(c.gap).run(black_box(trace)));
        host.session[i] = t0.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    let base = black_box(run_trace(black_box(trace), core, None, 0));
    host.base = t0.elapsed().as_secs_f64();
    let mut p = configs[HYBRID].factory.build();
    let t0 = Instant::now();
    let hybrid = black_box(run_trace(black_box(trace), core, Some(p.as_mut()), 0));
    host.hybrid = t0.elapsed().as_secs_f64();
    let sim = Simulated {
        stats,
        base: CoreSim::from(&base),
        hybrid: CoreSim::from(&hybrid),
    };
    (sim, host)
}

/// Suite-mean prediction rate (percent) of configuration `config` — the
/// paper's "Average" column averages suites, not loads.
#[must_use]
pub fn suite_mean_rate_pct(suites: &[Suite], sims: &[Simulated], config: usize) -> f64 {
    let mut per_suite: Vec<(Suite, PredictorStats)> = Vec::new();
    for (suite, sim) in suites.iter().zip(sims) {
        match per_suite.iter_mut().find(|(s, _)| s == suite) {
            Some((_, acc)) => acc.merge(&sim.stats[config]),
            None => per_suite.push((*suite, sim.stats[config])),
        }
    }
    let sum: f64 = per_suite.iter().map(|(_, s)| s.prediction_rate()).sum();
    sum / per_suite.len() as f64 * 100.0
}

/// Geometric-mean simulated speedup of the hybrid over no prediction.
#[must_use]
pub fn geomean_speedup(sims: &[Simulated]) -> f64 {
    let logs: f64 = sims
        .iter()
        .map(|s| (s.base.cycles as f64 / s.hybrid.cycles as f64).ln())
        .sum();
    (logs / sims.len() as f64).exp()
}
