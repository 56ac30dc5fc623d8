//! Bench: regenerate Figure 6 (hybrid prediction rate vs Load Buffer
//! geometry) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig6;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    group.bench_function("lb_geometry_sweep", |b| {
        b.iter(|| fig6::run(&scale));
    });
    group.finish();

    let (_, report) = fig6::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
