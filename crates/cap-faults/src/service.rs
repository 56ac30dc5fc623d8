//! Service-level fault kinds.
//!
//! [`crate::plan::FaultPlan`] corrupts predictor *state*; this module
//! models the failures a prediction **service** meets in production:
//! worker threads panicking mid-request, latency spikes inside a
//! backend call, and whole-queue stalls. A [`ServiceFaultPlan`] is the
//! same discipline as every other random stream in this workspace — a
//! pure function of a `u64` seed — so a chaos soak that fails is
//! replayable from its seed alone.

use cap_rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// One service-level fault, drawn from a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The worker panics inside the backend call for this request. The
    /// service must contain it (`catch_unwind`), answer the request
    /// with a structured error, and charge the breaker.
    WorkerPanic,
    /// The backend call for this request takes this much extra time —
    /// a latency spike that eats deadline budgets.
    Latency(Duration),
    /// The worker stalls this long *before* even looking at its queue,
    /// so the queue backs up and admission control must shed.
    QueueStall(Duration),
}

impl ServiceFault {
    /// Short lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServiceFault::WorkerPanic => "worker-panic",
            ServiceFault::Latency(_) => "latency",
            ServiceFault::QueueStall(_) => "queue-stall",
        }
    }
}

/// Per-request fault probabilities and magnitudes.
///
/// Each request draws at most one fault; probabilities are evaluated in
/// the order panic → latency → stall, so the three never stack on one
/// request and `p_panic + p_latency + p_stall` should stay well under 1.
#[derive(Debug, Clone, Copy)]
pub struct ServiceFaultConfig {
    /// Probability a request's backend call panics.
    pub p_panic: f64,
    /// Probability a request's backend call takes a latency hit.
    pub p_latency: f64,
    /// Probability the worker stalls before serving a request.
    pub p_stall: f64,
    /// Injected latency range (uniform, milliseconds).
    pub latency_ms: (u64, u64),
    /// Injected stall range (uniform, milliseconds).
    pub stall_ms: (u64, u64),
}

impl Default for ServiceFaultConfig {
    fn default() -> Self {
        Self {
            p_panic: 0.01,
            p_latency: 0.02,
            p_stall: 0.005,
            latency_ms: (1, 5),
            stall_ms: (5, 20),
        }
    }
}

/// A seeded, deterministic stream of service-level faults.
///
/// Workers call [`ServiceFaultPlan::draw`] once per request; the stream
/// of answers is a pure function of the seed and the call count.
#[derive(Debug)]
pub struct ServiceFaultPlan {
    config: ServiceFaultConfig,
    rng: StdRng,
    injected: u64,
}

impl ServiceFaultPlan {
    /// A plan drawing from `config` with the given seed.
    #[must_use]
    pub fn new(seed: u64, config: ServiceFaultConfig) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// Draws the fault (if any) for the next request.
    pub fn draw(&mut self) -> Option<ServiceFault> {
        let c = self.config;
        let fault = if self.rng.gen_bool(c.p_panic) {
            Some(ServiceFault::WorkerPanic)
        } else if self.rng.gen_bool(c.p_latency) {
            let (lo, hi) = c.latency_ms;
            let ms = self.rng.gen_range(lo..=hi.max(lo));
            Some(ServiceFault::Latency(Duration::from_millis(ms)))
        } else if self.rng.gen_bool(c.p_stall) {
            let (lo, hi) = c.stall_ms;
            let ms = self.rng.gen_range(lo..=hi.max(lo));
            Some(ServiceFault::QueueStall(Duration::from_millis(ms)))
        } else {
            None
        };
        if fault.is_some() {
            self.injected += 1;
        }
        fault
    }

    /// Faults handed out so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(seed: u64, n: usize) -> Vec<Option<ServiceFault>> {
        let mut plan = ServiceFaultPlan::new(seed, ServiceFaultConfig::default());
        (0..n).map(|_| plan.draw()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(drain(11, 2_000), drain(11, 2_000));
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(drain(1, 2_000), drain(2, 2_000));
    }

    #[test]
    fn all_kinds_appear_at_default_rates() {
        let faults: Vec<ServiceFault> = drain(3, 10_000).into_iter().flatten().collect();
        assert!(faults
            .iter()
            .any(|f| matches!(f, ServiceFault::WorkerPanic)));
        assert!(faults.iter().any(|f| matches!(f, ServiceFault::Latency(_))));
        assert!(faults
            .iter()
            .any(|f| matches!(f, ServiceFault::QueueStall(_))));
        // Rates are in a sane band: ~3.5% of 10k, generously bounded.
        assert!(faults.len() > 100 && faults.len() < 1_500);
    }

    #[test]
    fn magnitudes_stay_in_configured_ranges() {
        let config = ServiceFaultConfig {
            p_panic: 0.0,
            p_latency: 0.5,
            p_stall: 0.5,
            latency_ms: (2, 4),
            stall_ms: (7, 9),
        };
        let mut plan = ServiceFaultPlan::new(5, config);
        for _ in 0..2_000 {
            match plan.draw() {
                Some(ServiceFault::Latency(d)) => {
                    assert!((2..=4).contains(&d.as_millis()), "latency {d:?}");
                }
                Some(ServiceFault::QueueStall(d)) => {
                    assert!((7..=9).contains(&d.as_millis()), "stall {d:?}");
                }
                Some(ServiceFault::WorkerPanic) => panic!("p_panic is zero"),
                None => {}
            }
        }
        assert!(plan.injected() > 1_000);
    }

    #[test]
    fn zero_probabilities_inject_nothing() {
        let config = ServiceFaultConfig {
            p_panic: 0.0,
            p_latency: 0.0,
            p_stall: 0.0,
            ..ServiceFaultConfig::default()
        };
        let mut plan = ServiceFaultPlan::new(9, config);
        assert!((0..1_000).all(|_| plan.draw().is_none()));
        assert_eq!(plan.injected(), 0);
    }
}
