//! Bench: the extension experiments — rejected alternatives (§1 value
//! prediction, §3.3 delta correlation) and future-work features (§6
//! variable history, profile feedback; §1.1 prefetching).

use cap_bench::bench_kit::Criterion;
use cap_bench::{bench_scale, bench_scale_timing};
use cap_harness::experiments::ext;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let timing = bench_scale_timing();
    let mut group = c.benchmark_group("ext_features");
    group.sample_size(10);
    group.bench_function("delta_correlation", |b| {
        b.iter(|| ext::delta_correlation(&scale));
    });
    group.bench_function("variable_history", |b| {
        b.iter(|| ext::variable_history(&scale));
    });
    group.bench_function("profile_guided", |b| {
        b.iter(|| ext::profile_guided(&scale));
    });
    group.bench_function("value_vs_address", |b| {
        b.iter(|| ext::value_vs_address(&scale));
    });
    group.bench_function("prefetch", |b| {
        b.iter(|| ext::prefetch(&timing));
    });
    group.bench_function("wrong_path", |b| {
        b.iter(|| ext::wrong_path(&scale));
    });
    group.finish();

    for report in [
        ext::delta_correlation(&scale).1,
        ext::variable_history(&scale).1,
        ext::profile_guided(&scale).1,
        ext::value_vs_address(&scale).1,
        ext::prefetch(&timing).1,
        ext::wrong_path(&scale).1,
    ] {
        println!("{report}");
    }
}

cap_bench::bench_main!(bench);
