//! Bench: regenerate Figure 9 (correct predictions vs history length,
//! with/without global correlation) at bench scale.

use cap_bench::bench_kit::Criterion;
use cap_bench::bench_scale;
use cap_harness::experiments::fig9;

fn bench(c: &mut Criterion) {
    let scale = bench_scale();
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);
    group.bench_function("history_length_sweep", |b| {
        b.iter(|| fig9::run(&scale));
    });
    group.finish();

    let (_, report) = fig9::run(&scale);
    println!("{report}");
}

cap_bench::bench_main!(bench);
