//! Bench: regenerate Figure 7 (per-trace speedup over no address
//! prediction) at timing-bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale_timing;
use cap_harness::experiments::fig7;

fn bench(c: &mut Criterion) {
    let scale = bench_scale_timing();
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    group.bench_function("speedup_sweep", |b| {
        b.iter(|| fig7::run(&scale));
    });
    group.finish();

    let (_, report) = fig7::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
