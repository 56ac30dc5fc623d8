//! Bench: regenerate Figure 8 (hybrid selector state distribution and
//! correct-selection rate) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig8;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.bench_function("selector_stats", |b| {
        b.iter(|| fig8::run(&scale));
    });
    group.finish();

    let (_, report) = fig8::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
