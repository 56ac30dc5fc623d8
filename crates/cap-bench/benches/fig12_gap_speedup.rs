//! Bench: regenerate Figure 12 (per-suite speedups under a prediction
//! gap of 8 cycles) at timing-bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale_timing;
use cap_harness::experiments::fig12;

fn bench(c: &mut Criterion) {
    let scale = bench_scale_timing();
    let mut group = c.benchmark_group("fig12");
    group.sample_size(10);
    group.bench_function("gapped_speedup_sweep", |b| {
        b.iter(|| fig12::run(&scale));
    });
    group.finish();

    let (_, report) = fig12::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
