//! Chaos soak: hammer the service from many client threads while a
//! seeded fault plan injects worker panics, latency spikes, and queue
//! stalls, then prove the three load-bearing claims:
//!
//! 1. **No deadlocks** — every one of the ≥10k calls returns (the test
//!    finishing at all is the proof; `ReplyTimeout` and every error
//!    kind not tallied by name must be zero).
//! 2. **No silent drops** — replies (ok + structured errors) exactly
//!    equal requests, and the server-side accounting agrees.
//! 3. **Recovery** — the ladder demoted under fire and climbs back to
//!    the top rung once the chaos stops.

use cap_faults::service::ServiceFaultConfig;
use cap_service::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const PER_CLIENT: u64 = 1_500;
const TOTAL: u64 = CLIENTS as u64 * PER_CLIENT; // 12k ≥ the 10k floor

/// Tallies of every way a call can end.
#[derive(Default)]
struct Tally {
    ok: AtomicU64,
    shed: AtomicU64,
    deadline: AtomicU64,
    panicked: AtomicU64,
    shutting_down: AtomicU64,
    reply_timeout: AtomicU64,
    other: AtomicU64,
}

impl Tally {
    fn count(&self, outcome: &Result<Response, ServiceError>) {
        let cell = match outcome {
            Ok(_) => &self.ok,
            Err(ServiceError::Shed { .. }) => &self.shed,
            Err(ServiceError::DeadlineExceeded { .. }) => &self.deadline,
            Err(ServiceError::BackendPanicked { .. }) => &self.panicked,
            Err(ServiceError::ShuttingDown) => &self.shutting_down,
            Err(ServiceError::ReplyTimeout { .. }) => &self.reply_timeout,
            Err(_) => &self.other,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.ok.load(Ordering::Relaxed)
            + self.shed.load(Ordering::Relaxed)
            + self.deadline.load(Ordering::Relaxed)
            + self.panicked.load(Ordering::Relaxed)
            + self.shutting_down.load(Ordering::Relaxed)
            + self.reply_timeout.load(Ordering::Relaxed)
            + self.other.load(Ordering::Relaxed)
    }
}

fn soak_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        // Tight queue so stalls genuinely push depth into shedding
        // territory under 8 concurrent clients.
        queue_capacity: 4,
        breaker: BreakerConfig {
            // Aggressive: trips become common enough to drive real
            // ladder movement inside a 12k-request soak.
            failure_threshold: 3,
            close_after: 2,
            cooldown: Duration::from_millis(20),
            jitter: Duration::from_millis(5),
        },
        ladder: LadderConfig {
            promote_after: 16,
            pressure_high: 3,
            pressure_low: 1,
        },
        seed: 0xC4A0_5EED,
        ..ServiceConfig::default()
    }
}

fn chaos() -> ServiceFaultConfig {
    ServiceFaultConfig {
        // High enough that 3-consecutive-panic breaker trips happen
        // (0.15^3 ≈ 3.4e-3 per request → dozens over 12k requests).
        p_panic: 0.15,
        p_latency: 0.02,
        p_stall: 0.005,
        latency_ms: (1, 2),
        stall_ms: (1, 3),
    }
}

#[test]
fn soak_under_chaos_never_drops_and_recovers_to_the_top_rung() {
    // Injected panics are contained by design; keep hundreds of them
    // from flooding the test log while letting real failures print.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected worker panic"));
        if !injected {
            default_hook(info);
        }
    }));

    let mut config = soak_config();
    config.chaos = Some((0xD150_4DE3, chaos()));
    let registry = Arc::new(cap_obs::Registry::new());
    config.obs = registry.obs();
    let service = Service::start(config);
    let handle = service.handle();
    let tally = Arc::new(Tally::default());

    let start = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle = handle.clone();
            let tally = Arc::clone(&tally);
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let ip = 0x400 + ((c as u64 * PER_CLIENT + i) % 64) * 4;
                    let request = Request::Observe {
                        ip,
                        offset: 0,
                        ghr: i & 0xFF,
                        actual: 0x0010_0000 + ip * 0x100 + (i % 16) * 8,
                    };
                    // Every 7th request carries a tight budget so the
                    // deadline machinery sees real expiries under
                    // injected latency.
                    let budget = (i % 7 == 0).then(|| Duration::from_millis(2));
                    tally.count(&handle.call(request, budget));
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client threads themselves never panic");
    }
    let soak_elapsed = start.elapsed();

    // Claim 2: nothing dropped — one reply per request, and the server
    // agrees about what it admitted and shed.
    assert_eq!(tally.total(), TOTAL, "every request got exactly one reply");
    assert_eq!(
        tally.reply_timeout.load(Ordering::Relaxed),
        0,
        "no wedged worker"
    );
    assert_eq!(
        tally.other.load(Ordering::Relaxed),
        0,
        "no unexpected error kinds"
    );
    assert_eq!(
        tally.shutting_down.load(Ordering::Relaxed),
        0,
        "nobody saw shutdown"
    );

    let stats = handle.stats().expect("stats after soak");
    assert_eq!(
        stats.accepted + stats.shed,
        TOTAL + stats.workers.len() as u64, // the stats call itself probes each shard
        "admission accounting covers every submission"
    );
    assert_eq!(
        stats.shed,
        tally.shed.load(Ordering::Relaxed),
        "shed counts agree"
    );

    // The chaos was real: panics were contained and charged, breakers
    // tripped, the ladder demoted.
    let panics: u64 = stats.workers.iter().map(|w| w.backend_panics).sum();
    let trips: u64 = stats
        .workers
        .iter()
        .flat_map(|w| w.breakers.iter().map(|b| b.trips))
        .sum();
    let demotions: u64 = stats.workers.iter().map(|w| w.demotions).sum();
    assert!(panics > 100, "expected heavy injected panics, saw {panics}");
    assert!(trips > 0, "breakers never tripped — chaos too gentle");
    assert!(
        demotions > 0,
        "ladder never demoted — soak exercised nothing"
    );
    assert!(
        tally.panicked.load(Ordering::Relaxed) > 0,
        "panic containment surfaced as structured errors"
    );

    // Claim 3: recovery. Chaos off, healthy traffic in, every worker
    // must climb back to the top rung.
    handle.set_chaos(None);
    let recovery_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for i in 0..200u64 {
            let _ = handle.call(
                Request::Observe {
                    ip: 0x400 + (i % 64) * 4,
                    offset: 0,
                    ghr: 0,
                    actual: 0x0020_0000 + i * 8,
                },
                None,
            );
        }
        let now = handle.stats().expect("stats during recovery");
        if now.worst_rung() == Rung::Hybrid {
            break;
        }
        assert!(
            Instant::now() < recovery_deadline,
            "ladder failed to return to hybrid; stuck at {:?}",
            now.worst_rung()
        );
    }

    // The telemetry registry is a *view* over the same events the
    // legacy counters witnessed — after a 12k-request chaos soak plus
    // the recovery traffic, the two accountings must still agree
    // exactly, counter for counter.
    let stats = handle.stats().expect("final stats");
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter(cap_service::names::ACCEPTED), stats.accepted);
    assert_eq!(counter(cap_service::names::SHED), stats.shed);
    assert_eq!(
        counter(cap_service::names::REJECTED_SHUTDOWN),
        stats.rejected_shutdown
    );
    let served: u64 = stats.workers.iter().map(|w| w.served).sum();
    assert_eq!(counter(cap_service::names::SERVED), served);
    assert_eq!(
        counter(cap_service::names::BACKEND_PANIC),
        stats.workers.iter().map(|w| w.backend_panics).sum::<u64>()
    );
    for rung in Rung::ALL {
        let by_rung: u64 = stats
            .workers
            .iter()
            .map(|w| w.served_by_rung[rung.index()])
            .sum();
        let hist_count = snap
            .histogram(cap_service::names::LATENCY_BY_RUNG[rung.index()])
            .map_or(0, |h| h.count);
        assert_eq!(hist_count, by_rung, "latency histogram count for {rung:?}");
    }
    assert_eq!(
        cap_predictor::metrics::PredictorStats::from_obs_snapshot(&snap),
        stats.merged_predictor(),
        "pred.* registry counters reconcile with the merged legacy view"
    );

    // Graceful exit with nothing in flight drains cleanly.
    let report = service.shutdown(Duration::from_millis(500));
    assert_eq!(report.drain_rejected, 0);
    assert!(!report.snapshot.is_empty());

    // Sanity on wall-clock: the soak is bounded work, not a hang that
    // happened to finish (12k requests with millisecond faults).
    assert!(
        soak_elapsed < Duration::from_secs(120),
        "soak took {soak_elapsed:?}; something is serializing"
    );
}
