//! Bench: the telemetry layer's cost, on and off.
//!
//! The `Recorder` contract is that a disabled [`cap_obs::Obs`] costs a
//! single branch per record site — instrumented hot paths must run at
//! the speed of uninstrumented ones. This bench measures three things:
//!
//! 1. `drive/obs_off` — a full hybrid-predictor sweep with the no-op
//!    handle (what production code pays when telemetry is off);
//! 2. `drive/obs_on` — the same sweep recording into a live registry
//!    (the price of turning telemetry on);
//! 3. `calls/noop_1m` — one million disabled `incr` + `record` calls in
//!    a tight loop (the raw per-site cost, isolated).
//!
//! Every run *asserts* the zero-overhead claim (`verify.sh bench` runs
//! it): the amortized per-call cost of a disabled handle must be under
//! 2% of the per-event cost of the drive loop it is embedded in (with a
//! small absolute floor so clock granularity on a fast machine cannot
//! fail the gate spuriously).

use cap_bench::bench_kit::Criterion;
use cap_obs::{Obs, Registry};
use cap_predictor::drive::Session;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_trace::suites::catalog;
use cap_trace::Trace;
use std::sync::Arc;

const NOOP_CALLS: u64 = 1_000_000;

fn bench_trace() -> Trace {
    // Suite 1 at a size big enough to dominate per-sweep fixed costs
    // but small enough for the quick (smoke) mode.
    catalog()[1].generate(20_000)
}

fn drive(trace: &Trace, obs: &Obs) -> u64 {
    let mut predictor = HybridPredictor::new(HybridConfig::paper_default());
    let stats = Session::new(&mut predictor).obs(obs.clone()).run(trace);
    stats.loads
}

fn noop_burst(obs: &Obs) -> u64 {
    let mut acc = 0u64;
    for i in 0..NOOP_CALLS {
        obs.incr("bench.counter");
        obs.record("bench.histogram", i);
        acc = acc.wrapping_add(i);
    }
    acc
}

fn bench(c: &mut Criterion) {
    let trace = bench_trace();
    let loads = trace.load_count() as u64;
    let off = Obs::off();
    let registry = Arc::new(Registry::new());
    let on = registry.obs();

    let mut group = c.benchmark_group("drive");
    group.sample_size(10);
    group.bench_function("obs_off", |b| b.iter(|| drive(&trace, &off)));
    group.bench_function("obs_on", |b| b.iter(|| drive(&trace, &on)));
    group.finish();

    let mut group = c.benchmark_group("calls");
    group.sample_size(10);
    group.bench_function("noop_1m", |b| b.iter(|| noop_burst(&off)));
    group.finish();

    let results = c.results().to_vec();
    let min_of = |id: &str| {
        results
            .iter()
            .find(|r| r.id == id)
            .expect("bench ran")
            .min()
    };
    // 2 record sites per loop iteration.
    let per_call_ns = min_of("calls/noop_1m").as_nanos() as f64 / (NOOP_CALLS * 2) as f64;
    let per_event_ns = min_of("drive/obs_off").as_nanos() as f64 / loads as f64;
    let on_vs_off =
        min_of("drive/obs_on").as_nanos() as f64 / min_of("drive/obs_off").as_nanos() as f64;
    println!(
        "disabled per-call {per_call_ns:.2} ns, drive per-event {per_event_ns:.1} ns \
         ({:.3}% per site); obs_on/obs_off = {on_vs_off:.3}x",
        100.0 * per_call_ns / per_event_ns
    );

    // The 2% acceptance bound, with a 2ns floor: min-sample timings on a
    // quiet machine are stable, but a sub-ns branch divided by a fast
    // drive loop must not fail on clock granularity.
    let bound_ns = (0.02 * per_event_ns).max(2.0);
    assert!(
        per_call_ns <= bound_ns,
        "disabled record site costs {per_call_ns:.2} ns/call; \
         bound is {bound_ns:.2} ns (2% of {per_event_ns:.1} ns/event)"
    );
    println!("zero-overhead check passed: {per_call_ns:.2} ns/call <= {bound_ns:.2} ns bound");
}

cap_bench::bench_main!(bench);
