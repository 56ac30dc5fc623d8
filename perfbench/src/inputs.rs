//! Workload inputs, all derived from the `--seed` argument.
//!
//! Seed 0 reproduces the trace catalog exactly as `repro` generates it;
//! any other seed perturbs every `TraceSpec` seed, so the suites keep
//! their shape while every trace gets a different instance.

use cap_predictor::drive::ControlState;
use cap_service::service::Request;
use cap_trace::io::event_line;
use cap_trace::suites::{catalog, Suite, TraceSpec};
use cap_trace::{Trace, TraceEvent};

/// The seed that reproduces the catalog unchanged.
pub const DEFAULT_SEED: u64 = 0;

/// SplitMix64 finaliser: spreads a small seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The whole catalog (45 traces in 8 suites) under `seed`.
#[must_use]
pub fn all_specs(seed: u64) -> Vec<TraceSpec> {
    let salt = if seed == DEFAULT_SEED { 0 } else { mix(seed) };
    catalog()
        .into_iter()
        .map(|mut spec| {
            spec.seed ^= salt;
            spec
        })
        .collect()
}

/// The first trace of every suite, in the paper's suite order.
#[must_use]
pub fn one_per_suite(seed: u64) -> Vec<TraceSpec> {
    let specs = all_specs(seed);
    Suite::ALL
        .iter()
        .filter_map(|&suite| specs.iter().find(|s| s.suite == suite).cloned())
        .collect()
}

/// The catalog trace the durable workload writes to disk (the one
/// `simulate gen` writes by default).
#[must_use]
pub fn durable_spec(seed: u64) -> TraceSpec {
    all_specs(seed).swap_remove(1)
}

/// Generates every spec at `loads` loads per trace.
#[must_use]
pub fn generate(specs: &[TraceSpec], loads: usize) -> Vec<Trace> {
    specs.iter().map(|s| s.generate(loads)).collect()
}

/// The `Observe` stream a client replays for `traces`, one trace after
/// another, each with its own control state — exactly how
/// `simulate client --trace` builds its requests.
#[must_use]
pub fn observe_stream(traces: &[Trace]) -> Vec<Request> {
    let mut out = Vec::new();
    for trace in traces {
        let mut control = ControlState::default();
        for event in trace.events() {
            match event {
                TraceEvent::Load(load) => out.push(Request::Observe {
                    ip: load.ip,
                    offset: load.offset,
                    ghr: control.ghr,
                    actual: load.addr,
                }),
                TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
    }
    out
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a trace's canonical text form.
#[must_use]
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::default();
    for event in trace.events() {
        h.bytes(event_line(event).as_bytes());
        h.bytes(b"\n");
    }
    h.finish()
}

/// Digest of a request stream.
#[must_use]
pub fn stream_digest(stream: &[Request]) -> u64 {
    let mut h = Fnv::default();
    for r in stream {
        match *r {
            Request::Observe {
                ip,
                offset,
                ghr,
                actual,
            } => {
                h.u64(ip);
                h.u64(offset as u64);
                h.u64(ghr);
                h.u64(actual);
            }
            Request::Predict { ip, offset, ghr } => {
                h.u64(ip);
                h.u64(offset as u64);
                h.u64(ghr);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOADS: usize = 1_500;

    fn stream(seed: u64) -> Vec<Request> {
        observe_stream(&generate(&one_per_suite(seed), LOADS))
    }

    #[test]
    fn default_seed_is_the_catalog_as_is() {
        let ours = all_specs(DEFAULT_SEED);
        let theirs = catalog();
        assert_eq!(ours.len(), 45);
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!((a.name, a.seed, a.variant), (b.name, b.seed, b.variant));
        }
        assert_eq!(one_per_suite(DEFAULT_SEED).len(), 8);
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for seed in [DEFAULT_SEED, 7] {
            let a = stream(seed);
            let b = stream(seed);
            assert_eq!(a, b);
            assert_eq!(stream_digest(&a), stream_digest(&b));
            let spec = durable_spec(seed);
            assert_eq!(
                trace_digest(&spec.generate(LOADS)),
                trace_digest(&spec.generate(LOADS))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let digests: Vec<u64> = [DEFAULT_SEED, 1, 2, 3]
            .iter()
            .map(|&s| stream_digest(&stream(s)))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b, "two seeds produced the same request stream");
            }
        }
        let t0 = trace_digest(&durable_spec(DEFAULT_SEED).generate(LOADS));
        let t1 = trace_digest(&durable_spec(1).generate(LOADS));
        assert_ne!(t0, t1, "two seeds produced the same trace");
    }

    #[test]
    fn stream_follows_the_trace_loads() {
        let traces = generate(&one_per_suite(DEFAULT_SEED), LOADS);
        let stream = observe_stream(&traces);
        let loads: usize = traces.iter().map(Trace::load_count).sum();
        assert_eq!(stream.len(), loads);
        assert!(stream.iter().all(|r| matches!(r, Request::Observe { .. })));
    }
}
