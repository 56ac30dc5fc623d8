//! Warm-restart differential: drain → snapshot → restore → serve must
//! be invisible to the predictors. A service that serves a trace in one
//! uninterrupted run and a service that is shut down mid-trace and
//! restored from its snapshot must end with **bit-identical** predictor
//! metrics — same loads, same predictions, same hits.

use cap_service::prelude::*;
use std::time::Duration;

const TRACE_LEN: u64 = 4_000;
const SPLIT: u64 = 1_700; // deliberately not a round fraction

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        queue_capacity: 32,
        seed: 0x0DD_B17,
        ..ServiceConfig::default()
    }
}

/// A deterministic trace with real structure: a few stride streams and
/// a pointer-chasing stream whose addresses depend on the index.
fn event(i: u64) -> Request {
    let lane = i % 5;
    let ip = 0x400 + lane * 0x40;
    let actual = match lane {
        0 => 0x1_0000 + i * 8,                          // unit stride
        1 => 0x2_0000 + i * 24,                         // wide stride
        2 => 0x3_0000 + (i % 7) * 0x100,                // short period
        3 => 0x4_0000 + i.wrapping_mul(0x9E37) % 0x800, // scrambled
        _ => 0x5_0000 + (i / 5) * 16,                   // per-lane stride
    };
    Request::Observe {
        ip,
        offset: 0,
        ghr: i & 0x3F,
        actual,
    }
}

fn drive(handle: &ServiceHandle, range: std::ops::Range<u64>) {
    for i in range {
        handle
            .call(event(i), None)
            .expect("deterministic fault-free serving cannot fail");
    }
}

#[test]
fn restored_service_is_bit_identical_to_an_uninterrupted_one() {
    // Reference: one service serves the whole trace.
    let reference = Service::start(config());
    drive(&reference.handle(), 0..TRACE_LEN);
    let expected = reference.handle().stats().expect("reference stats");
    let _ = reference.shutdown(Duration::from_millis(200));

    // Subject: serve a prefix, drain + snapshot, restore, serve the rest.
    let first = Service::start(config());
    drive(&first.handle(), 0..SPLIT);
    let report = first.shutdown(Duration::from_secs(1));
    assert_eq!(report.drain_rejected, 0, "nothing was in flight at drain");

    let second = Service::start_restored(config(), &report.snapshot).expect("snapshot restores");
    drive(&second.handle(), SPLIT..TRACE_LEN);
    let restored = second.handle().stats().expect("restored stats");

    // The differential: merged predictor metrics are bit-identical,
    // and so is every per-worker breakdown (routing is deterministic).
    assert_eq!(
        expected.merged_predictor(),
        restored.merged_predictor(),
        "warm restart changed predictor behavior"
    );
    for (e, r) in expected.workers.iter().zip(&restored.workers) {
        assert_eq!(e.predictor, r.predictor, "worker {} diverged", e.worker);
    }

    // And the restored service keeps learning: a second restart chains.
    let report2 = second.shutdown(Duration::from_secs(1));
    let third = Service::start_restored(config(), &report2.snapshot).expect("snapshot chains");
    let after = third.handle().stats().expect("chained stats");
    assert_eq!(after.merged_predictor(), restored.merged_predictor());
    let _ = third.shutdown(Duration::from_millis(200));
}

#[test]
fn every_corrupt_snapshot_degrades_to_cold_start() {
    // Build one genuine snapshot, then mangle it in assorted ways; the
    // tolerant path must always produce a *working* cold service.
    let donor = Service::start(config());
    drive(&donor.handle(), 0..64);
    let good = donor.shutdown(Duration::from_millis(200)).snapshot;

    let mut mangled: Vec<Vec<u8>> = vec![
        Vec::new(),                      // empty
        b"not a snapshot".to_vec(),      // garbage
        good[..good.len() / 2].to_vec(), // truncated
    ];
    let mut flipped = good.clone();
    flipped[good.len() / 3] ^= 0xFF; // CRC-detectable corruption
    mangled.push(flipped);

    for bytes in mangled {
        let (service, used_snapshot) = Service::restore_or_cold(config(), Some(&bytes));
        assert!(!used_snapshot, "corrupt snapshot must not be trusted");
        // Cold but alive: it serves and reports zeroed metrics.
        service
            .handle()
            .call(event(0), None)
            .expect("cold service serves");
        let stats = service.handle().stats().expect("cold stats");
        assert_eq!(stats.merged_predictor().loads, 1);
        let _ = service.shutdown(Duration::from_millis(200));
    }

    // The pristine snapshot, by contrast, is used.
    let (warm, used_snapshot) = Service::restore_or_cold(config(), Some(&good));
    assert!(used_snapshot);
    assert_eq!(
        warm.handle()
            .stats()
            .expect("warm stats")
            .merged_predictor()
            .loads,
        64
    );
    let _ = warm.shutdown(Duration::from_millis(200));
}
