//! Bench: regenerate Figure 5 (stride vs CAP vs hybrid prediction
//! performance) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig5;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);
    group.bench_function("stride_cap_hybrid_sweep", |b| {
        b.iter(|| fig5::run(&scale));
    });
    group.finish();

    // Print the regenerated table once so bench logs double as reports.
    let (_, report) = fig5::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
