//! Bench: prediction-service throughput and request latency per rung.
//!
//! The degradation ladder only makes sense if each step down actually
//! buys something: stride-only must be cheaper than the full hybrid,
//! and bypass cheaper still. This bench prices every rung with a
//! single-worker service (so routing never spreads the load and the
//! measurement is the rung itself, not the fan-out): requests/second
//! through the in-process handle, plus per-request p50/p99 latency over
//! the same workload. `pin_rung` holds the ladder still so a rung never
//! drifts mid-measurement.

use cap_bench::bench_kit::Criterion;
use cap_service::prelude::*;
use std::time::{Duration, Instant};

/// Requests per timed iteration — enough for stable percentiles,
/// small enough that quick mode stays a smoke test.
const REQUESTS: usize = 5_000;

/// A deterministic workload mixing three access patterns across
/// distinct static loads: a fixed stride, a GHR-correlated alternation,
/// and a pointer-chase-shaped wandering address.
fn request_for(i: usize) -> Request {
    let i = i as u64;
    match i % 3 {
        0 => Request::Observe {
            ip: 0x40_1000,
            offset: 0,
            ghr: 0,
            actual: 0x1000 + i * 8,
        },
        1 => Request::Observe {
            ip: 0x40_2000,
            offset: 1,
            ghr: (i / 3) & 0xF,
            actual: if (i / 3).is_multiple_of(2) {
                0x8000
            } else {
                0x9000
            },
        },
        _ => Request::Observe {
            ip: 0x40_3000,
            offset: 2,
            ghr: 0,
            actual: 0x10_0000 + (i.wrapping_mul(0x9E37_79B9) & 0xFFF8),
        },
    }
}

fn pinned_service(rung: Rung) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        pin_rung: Some(rung),
        ..ServiceConfig::default()
    })
}

/// Drives `REQUESTS` requests, recording each round-trip latency.
fn drive(handle: &ServiceHandle, latencies: &mut Vec<Duration>) {
    latencies.clear();
    for i in 0..REQUESTS {
        let start = Instant::now();
        handle
            .call(request_for(i), None)
            .expect("unpressured pinned service serves every request");
        latencies.push(start.elapsed());
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    group.sample_size(5);

    for rung in Rung::ALL {
        let service = pinned_service(rung);
        let handle = service.handle();
        let mut latencies = Vec::with_capacity(REQUESTS);

        group.bench_function(&format!("{}_x{}", rung.name(), REQUESTS), |b| {
            b.iter(|| drive(&handle, &mut latencies));
        });

        // Percentiles from the last iteration's per-request samples; the
        // throughput line prices the rung, the tail prices its jitter.
        let total: Duration = latencies.iter().sum();
        latencies.sort_unstable();
        let throughput = REQUESTS as f64 / total.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(
            "  {:<12} {:>10.0} req/s   p50 {:>9?}   p99 {:>9?}   max {:>9?}",
            rung.name(),
            throughput,
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
            latencies.last().copied().unwrap_or_default(),
        );

        let stats = handle.stats().expect("stats");
        assert_eq!(
            stats.workers[0].rung, rung,
            "pinned rung must hold for the whole measurement"
        );
        let report = service.shutdown(Duration::from_secs(1));
        assert_eq!(report.drain_rejected, 0);
    }

    group.finish();
}

cap_bench::bench_main!(bench);
