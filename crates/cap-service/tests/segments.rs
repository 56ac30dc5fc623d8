//! TCP segments per request round trip on loopback.
//!
//! Every socket on the request path sets `TCP_NODELAY`, under which
//! each write leaves as its own segment. A frame written as a length
//! prefix and then a payload costs two data segments where one would
//! do, so an Observe round trip (request frame, reply frame, and the
//! ACKs those do not carry) would take six segments instead of two.
//! This test counts them with the kernel's `OutSegs` counter.
//!
//! It is its own test binary on purpose: `OutSegs` counts every segment
//! the network namespace sends, so no sibling test may share this
//! process. Off Linux, or without a readable `/proc/net/snmp`, it
//! returns early and says why.

use cap_service::prelude::*;
use std::time::Duration;

const ROUND_TRIPS: u64 = 2_000;

/// The namespace-wide `Tcp: OutSegs` counter from `/proc/net/snmp`
/// (a header line naming the columns, then a line of values).
fn out_segs() -> Result<u64, String> {
    let snmp = std::fs::read_to_string("/proc/net/snmp").map_err(|e| e.to_string())?;
    let mut tcp = snmp.lines().filter(|line| line.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (tcp.next(), tcp.next()) else {
        return Err("no Tcp header and value lines".into());
    };
    let column = names
        .split_whitespace()
        .position(|name| name == "OutSegs")
        .ok_or("no OutSegs column")?;
    values
        .split_whitespace()
        .nth(column)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "OutSegs value missing or not a number".into())
}

#[test]
fn an_observe_round_trip_costs_two_segments() {
    if !cfg!(target_os = "linux") {
        eprintln!("skipped: OutSegs is read from Linux's /proc/net/snmp");
        return;
    }
    if let Err(why) = out_segs() {
        eprintln!("skipped: cannot read OutSegs from /proc/net/snmp: {why}");
        return;
    }

    let service = Service::start(ServiceConfig::default());
    let server = TcpServer::bind(("127.0.0.1", 0), service.handle(), debug_stats_renderer())
        .expect("bind on loopback");
    let addr = server.local_addr().expect("resolved addr");
    let join = std::thread::spawn(move || {
        let drain = server.run().expect("accept loop");
        service.shutdown(drain)
    });
    let mut client = TcpClient::connect(addr).expect("connect");

    let before = out_segs().expect("OutSegs before");
    for i in 0..ROUND_TRIPS {
        let reply = client
            .serve(
                Request::Observe {
                    ip: 0x400 + (i % 64) * 4,
                    offset: 0,
                    ghr: i,
                    actual: 0x8000 + i * 8,
                },
                None,
            )
            .expect("observe over tcp");
        assert!(matches!(reply, WireResponse::Response(_)), "{reply:?}");
    }
    let after = out_segs().expect("OutSegs after");

    let _ = client.shutdown(Duration::from_millis(100));
    let _ = join.join();

    let per_round_trip = (after - before) as f64 / ROUND_TRIPS as f64;
    eprintln!(
        "{} segments over {ROUND_TRIPS} round trips: {per_round_trip:.2} each",
        after - before
    );
    assert!(
        per_round_trip < 3.0,
        "{per_round_trip:.2} segments per round trip; one write per frame gives 2"
    );
}
