//! Bench: regenerate Figure 11 (prediction rate and accuracy vs
//! prediction gap) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig11;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);
    group.bench_function("gap_sweep", |b| {
        b.iter(|| fig11::run(&scale));
    });
    group.finish();

    let (_, report) = fig11::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
