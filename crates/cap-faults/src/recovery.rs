//! Recovery-time measurement: how long does a faulted predictor take to
//! heal?
//!
//! The paper's resilience story (§3.4–3.5) is that stale or corrupted
//! table state costs a few mispredictions, after which confidence
//! counters, tags and PF bits squeeze the damage back out. This module
//! quantifies that: it drives a *clean* twin and a *faulted* twin of the
//! same predictor over the same trace, injects a [`FaultPlan`] into the
//! faulted twin partway through, and reports how many post-fault loads
//! pass before the faulted twin's windowed correct-speculation rate
//! returns within ε of the clean twin's.

use crate::plan::{FaultPlan, InjectionReport};
use crate::target::FaultTarget;
use cap_predictor::drive::ControlState;
use cap_predictor::types::{AddressPredictor, LoadContext};
use cap_trace::{Trace, TraceEvent};

/// Parameters of a recovery measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Load index (counting only loads) at which the plan is injected.
    pub inject_at: usize,
    /// Sliding-window length, in loads, over which rates are compared.
    pub window: usize,
    /// Maximum allowed |faulty − clean| windowed-rate gap to count as
    /// recovered.
    pub epsilon: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            inject_at: 0,
            window: 256,
            epsilon: 0.02,
        }
    }
}

/// Outcome of a recovery measurement.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct RecoveryReport {
    /// What the plan actually injected.
    pub injection: InjectionReport,
    /// Loads driven after the injection point.
    pub loads_after_fault: usize,
    /// Post-fault loads until the faulted twin's windowed rate re-entered
    /// the ε-band around the clean twin's, or `None` if it never did
    /// within the trace.
    pub recovered_after: Option<usize>,
    /// Clean twin's correct-speculation rate over the post-fault region.
    pub clean_rate: f64,
    /// Faulted twin's correct-speculation rate over the post-fault region.
    pub faulty_rate: f64,
}

/// Per-load correctness tallied the way the paper's coverage metric works:
/// a load scores when a speculative access was launched at the right
/// address.
fn correct_spec<P: AddressPredictor + ?Sized>(p: &mut P, ctx: &LoadContext, actual: u64) -> bool {
    let pred = p.predict(ctx);
    let hit = pred.speculate && pred.is_correct(actual);
    p.update(ctx, actual, &pred);
    hit
}

fn windowed_rate(hits: &[bool], end: usize, window: usize) -> f64 {
    let start = end.saturating_sub(window);
    let n = end - start;
    if n == 0 {
        return 0.0;
    }
    hits[start..end].iter().filter(|&&h| h).count() as f64 / n as f64
}

fn region_rate(hits: &[bool], from: usize) -> f64 {
    let n = hits.len().saturating_sub(from);
    if n == 0 {
        return 0.0;
    }
    hits[from..].iter().filter(|&&h| h).count() as f64 / n as f64
}

/// Measures recovery time for `plan` on predictors built by `make`.
///
/// Two twins from `make` run the trace under the immediate-update model;
/// at load [`RecoveryConfig::inject_at`] the plan hits the faulted twin
/// only. Recovery is declared at the first post-fault load where a full
/// [`RecoveryConfig::window`] has elapsed and the twins' windowed
/// correct-speculation rates differ by at most [`RecoveryConfig::epsilon`].
pub fn measure_recovery<P, F>(
    make: F,
    trace: &Trace,
    plan: &FaultPlan,
    cfg: &RecoveryConfig,
) -> RecoveryReport
where
    P: AddressPredictor + FaultTarget,
    F: Fn() -> P,
{
    let mut clean = make();
    let mut faulty = make();
    let mut control = ControlState::default();
    let mut injection = InjectionReport::default();
    let mut clean_hits: Vec<bool> = Vec::new();
    let mut faulty_hits: Vec<bool> = Vec::new();
    let mut injected = false;
    let mut recovered_after = None;

    for event in trace.iter() {
        match event {
            TraceEvent::Load(load) => {
                let load_idx = clean_hits.len();
                if !injected && load_idx >= cfg.inject_at {
                    injection = plan.inject_all(&mut faulty);
                    injected = true;
                }
                let ctx = control.context(load);
                clean_hits.push(correct_spec(&mut clean, &ctx, load.addr));
                faulty_hits.push(correct_spec(&mut faulty, &ctx, load.addr));
                if injected && recovered_after.is_none() {
                    let since = clean_hits.len() - cfg.inject_at;
                    if since >= cfg.window {
                        let end = clean_hits.len();
                        let gap = (windowed_rate(&clean_hits, end, cfg.window)
                            - windowed_rate(&faulty_hits, end, cfg.window))
                        .abs();
                        if gap <= cfg.epsilon {
                            recovered_after = Some(since);
                        }
                    }
                }
            }
            TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
            TraceEvent::Store(_) | TraceEvent::Op(_) => {}
        }
    }
    // Inject even if the trace ran out before the requested point, so the
    // report's injection field is never fabricated-empty.
    if !injected {
        injection = plan.inject_all(&mut faulty);
    }

    RecoveryReport {
        injection,
        loads_after_fault: clean_hits.len().saturating_sub(cfg.inject_at),
        recovered_after,
        clean_rate: region_rate(&clean_hits, cfg.inject_at.min(clean_hits.len())),
        faulty_rate: region_rate(&faulty_hits, cfg.inject_at.min(faulty_hits.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
    use cap_trace::suites::catalog;

    fn make() -> HybridPredictor {
        HybridPredictor::new(HybridConfig::paper_default())
    }

    #[test]
    fn no_faults_means_instant_recovery() {
        let trace = catalog()[0].generate(6_000);
        let plan = FaultPlan::new(7, 0); // zero-count plan: twins identical
        let cfg = RecoveryConfig {
            inject_at: 1_000,
            window: 128,
            epsilon: 0.0,
        };
        let report = measure_recovery(make, &trace, &plan, &cfg);
        assert_eq!(report.injection.attempted, 0);
        assert_eq!(report.recovered_after, Some(cfg.window));
        assert!((report.clean_rate - report.faulty_rate).abs() < 1e-12);
    }

    #[test]
    fn faulted_predictor_recovers_within_the_trace() {
        let trace = catalog()[0].generate(20_000);
        let plan = FaultPlan::new(0xFA11, 128);
        let cfg = RecoveryConfig {
            inject_at: 4_000,
            window: 256,
            epsilon: 0.05,
        };
        let report = measure_recovery(make, &trace, &plan, &cfg);
        assert!(report.injection.applied > 0, "plan must land faults");
        let recovered = report
            .recovered_after
            .expect("confidence machinery must heal the tables in-trace");
        assert!(
            recovered <= report.loads_after_fault,
            "recovery point lies within the measured region"
        );
    }

    #[test]
    fn late_inject_point_still_reports_injection() {
        let trace = catalog()[0].generate(2_000);
        let plan = FaultPlan::new(3, 16);
        let cfg = RecoveryConfig {
            inject_at: 1_000_000, // beyond the trace
            window: 64,
            epsilon: 0.05,
        };
        let report = measure_recovery(make, &trace, &plan, &cfg);
        assert_eq!(report.injection.attempted, 16);
        assert_eq!(report.loads_after_fault, 0);
        assert_eq!(report.recovered_after, None);
    }
}
