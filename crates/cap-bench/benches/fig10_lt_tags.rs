//! Bench: regenerate Figure 10 (Link-Table tag / path-indication
//! ablation) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig10;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);
    group.bench_function("lt_tag_ablation", |b| {
        b.iter(|| fig10::run(&scale));
    });
    group.finish();

    let (_, report) = fig10::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
