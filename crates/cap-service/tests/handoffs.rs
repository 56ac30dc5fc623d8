//! Thread hand-offs per in-process call.
//!
//! `ServiceHandle::call` serves a request on the caller's own thread:
//! it locks the shard the load IP routes to and runs the backend there.
//! Handing each request to a worker thread instead would block the
//! caller on its reply once per call, and every such block is a
//! voluntary context switch of the calling thread. This test counts
//! them with the kernel's per-thread `voluntary_ctxt_switches`.
//!
//! It is its own test binary, like `segments.rs`, so no sibling test
//! shares the process while it counts. Off Linux, or without a
//! readable `/proc/thread-self/status`, it returns early and says why.

use cap_service::prelude::*;
use std::time::Duration;

const WARM_UP: u64 = 200;
const CALLS: u64 = 2_000;

/// The calling thread's `voluntary_ctxt_switches` from
/// `/proc/thread-self/status`.
fn voluntary_switches() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no voluntary_ctxt_switches line".into())
}

fn observe(i: u64) -> Request {
    Request::Observe {
        ip: 0x400 + (i % 64) * 4,
        offset: 0,
        ghr: i,
        actual: 0x8000 + i * 8,
    }
}

#[test]
fn an_in_process_call_never_blocks_the_caller() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: voluntary_ctxt_switches is read from Linux's /proc");
        return;
    }
    if let Err(why) = voluntary_switches() {
        eprintln!("skipped: cannot read /proc/thread-self/status: {why}");
        return;
    }

    let service = Service::start(ServiceConfig::default());
    let handle = service.handle();
    for i in 0..WARM_UP {
        handle.call(observe(i), None).expect("warm-up observe");
    }

    let before = voluntary_switches().expect("switches before");
    for i in WARM_UP..WARM_UP + CALLS {
        let reply = handle.call(observe(i), None).expect("observe");
        assert!(matches!(reply, Response::Observed { .. }), "{reply:?}");
    }
    let after = voluntary_switches().expect("switches after");
    let _ = service.shutdown(Duration::from_millis(100));

    let per_call = (after - before) as f64 / CALLS as f64;
    eprintln!(
        "{} voluntary switches over {CALLS} calls: {per_call:.3} each",
        after - before
    );
    assert!(
        per_call < 0.1,
        "{per_call:.3} voluntary context switches per call; a call served on the \
         caller's thread never blocks, a hop to a worker thread blocks once"
    );
}
