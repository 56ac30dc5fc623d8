//! Bench: regenerate the paper's in-text tables (coverage, LT sweep,
//! update policy, control-based, pollution) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::text;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("text_tables");
    group.sample_size(10);
    group.bench_function("coverage", |b| b.iter(|| text::coverage(&scale)));
    group.bench_function("lt_sweep", |b| b.iter(|| text::lt_sweep(&scale)));
    group.bench_function("update_policy", |b| b.iter(|| text::update_policy(&scale)));
    group.bench_function("control_based", |b| b.iter(|| text::control_based(&scale)));
    group.bench_function("pollution", |b| b.iter(|| text::pollution(&scale)));
    group.finish();

    for report in [
        text::coverage(&scale).1,
        text::lt_sweep(&scale).1,
        text::update_policy(&scale).1,
        text::control_based(&scale).1,
        text::pollution(&scale).1,
    ] {
        println!("{report}");
    }
}

cap_bench::bench_main!(bench);
