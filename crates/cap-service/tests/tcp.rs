//! TCP front-end integration: a real socket server over a real
//! service, exercised by real clients — including a hostile one.

use cap_service::prelude::*;
use cap_service::wire::{
    write_frame, FrameReader, MAX_FRAME_LEN, MAX_REPLY_FRAME_LEN, WIRE_VERSION,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn spawn_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<ShutdownReport>,
) {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    });
    let server = TcpServer::bind(("127.0.0.1", 0), service.handle(), debug_stats_renderer())
        .expect("bind on loopback");
    let addr = server.local_addr().expect("resolved addr");
    let join = std::thread::spawn(move || {
        let drain = server.run().expect("accept loop");
        service.shutdown(drain)
    });
    (addr, join)
}

#[test]
fn tcp_clients_observe_predict_stat_and_shut_down() {
    let (addr, join) = spawn_server();

    // A well-behaved client teaches the service a stride and watches it
    // become predictable over the wire.
    let mut client = TcpClient::connect(addr).expect("connect");
    let mut last_correct = false;
    for i in 0..300u64 {
        let resp = client
            .serve(
                Request::Observe {
                    ip: 0x400,
                    offset: 0,
                    ghr: 0,
                    actual: 0x8000 + i * 8,
                },
                Some(Duration::from_secs(1)),
            )
            .expect("observe over tcp");
        match resp {
            WireResponse::Response(Response::Observed { correct, rung, .. }) => {
                last_correct = correct;
                assert_eq!(rung, Rung::Hybrid);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(last_correct, "stride learned over the wire");

    // A second concurrent connection reads predictions and stats.
    let mut other = TcpClient::connect(addr).expect("second connect");
    match other
        .serve(
            Request::Predict {
                ip: 0x400,
                offset: 0,
                ghr: 0,
            },
            None,
        )
        .expect("predict over tcp")
    {
        WireResponse::Response(Response::Predicted { addr, .. }) => {
            assert!(addr.is_some(), "trained load predicts an address");
        }
        resp => panic!("unexpected response {resp:?}"),
    }
    match other.stats().expect("stats over tcp") {
        WireResponse::Stats(doc) => assert!(doc.contains("accepted"), "got {doc}"),
        resp => panic!("unexpected response {resp:?}"),
    }

    // Graceful shutdown over the wire: ack, then the server drains and
    // snapshots.
    match client
        .shutdown(Duration::from_millis(300))
        .expect("shutdown")
    {
        WireResponse::ShutdownAck => {}
        resp => panic!("unexpected response {resp:?}"),
    }
    let report = join.join().expect("server thread");
    assert!(!report.snapshot.is_empty());
    let stats_loads = report
        .workers
        .iter()
        .map(|w| w.predictor.loads)
        .sum::<u64>();
    assert_eq!(
        stats_loads, 300,
        "every observed load landed in the final state"
    );
}

#[test]
fn obs_stats_frame_carries_per_rung_latency_over_the_wire() {
    let registry = std::sync::Arc::new(cap_obs::Registry::new());
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        obs: registry.obs(),
        ..ServiceConfig::default()
    });
    let exporter: ObsExporter = {
        let registry = std::sync::Arc::clone(&registry);
        std::sync::Arc::new(move || registry.snapshot().encode())
    };
    let server = TcpServer::bind(("127.0.0.1", 0), service.handle(), debug_stats_renderer())
        .expect("bind on loopback")
        .with_obs_exporter(exporter);
    let addr = server.local_addr().expect("resolved addr");
    let join = std::thread::spawn(move || {
        let drain = server.run().expect("accept loop");
        service.shutdown(drain)
    });

    let mut client = TcpClient::connect(addr).expect("connect");
    for i in 0..200u64 {
        client
            .serve(
                Request::Observe {
                    ip: 0x400 + (i % 8) * 4,
                    offset: 0,
                    ghr: 0,
                    actual: 0x8000 + i * 8,
                },
                Some(Duration::from_secs(1)),
            )
            .expect("observe over tcp");
    }

    let snap = client.obs_stats().expect("obs stats over the wire");
    assert_eq!(
        snap.counter(cap_service::names::SERVED),
        Some(200),
        "every served request is visible in the wire snapshot"
    );
    let hybrid = snap
        .histogram(cap_service::names::LATENCY_BY_RUNG[Rung::Hybrid.index()])
        .expect("per-rung latency histogram travels the wire");
    assert_eq!(hybrid.count, 200);
    assert!(hybrid.p50() <= hybrid.p99(), "quantiles are ordered");
    assert!(hybrid.p99() <= hybrid.max);

    let _ = client.shutdown(Duration::from_millis(200));
    let _ = join.join();
}

#[test]
fn server_without_exporter_answers_with_an_empty_snapshot() {
    let (addr, join) = spawn_server();
    let mut client = TcpClient::connect(addr).expect("connect");
    let snap = client.obs_stats().expect("obs stats probe");
    assert!(
        snap.is_empty(),
        "no exporter → empty snapshot, not an error"
    );
    let _ = client.shutdown(Duration::from_millis(100));
    let _ = join.join();
}

#[test]
fn snapshot_pull_over_tcp_restores_a_live_twin() {
    let (addr, join) = spawn_server();
    let mut client = TcpClient::connect(addr).expect("connect");
    for i in 0..250u64 {
        client
            .serve(
                Request::Observe {
                    ip: 0x400 + (i % 4) * 0x40,
                    offset: 0,
                    ghr: 0,
                    actual: 0x8000 + i * 8,
                },
                Some(Duration::from_secs(1)),
            )
            .expect("observe over tcp");
    }

    // Pull a live archive; the server keeps serving afterwards.
    let archive = client.pull_snapshot().expect("snapshot pull");
    assert!(!archive.is_empty());
    client
        .serve(
            Request::Predict {
                ip: 0x400,
                offset: 0,
                ghr: 0,
            },
            None,
        )
        .expect("server still serves after a pull");

    // The pulled bytes start a twin whose state matches the donor at
    // pull time.
    let twin = Service::start_restored(
        ServiceConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServiceConfig::default()
        },
        &archive,
    )
    .expect("pulled archive restores");
    let loads = twin.handle().stats().unwrap().merged_predictor().loads;
    assert_eq!(loads, 250, "twin carries every observe up to the pull");
    let _ = twin.shutdown(Duration::from_millis(100));

    let _ = client.shutdown(Duration::from_millis(100));
    let _ = join.join();
}

#[test]
fn hostile_peers_get_structured_errors_not_crashes() {
    let (addr, join) = spawn_server();

    // Unknown opcode (behind a valid version byte): a structured
    // protocol error comes back and the connection stays usable.
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut replies = FrameReader::new(MAX_REPLY_FRAME_LEN);
    write_frame(&mut stream, &[WIRE_VERSION, 0xEE, 1, 2, 3]).expect("send junk opcode");
    let payload = replies
        .read_from(&mut stream)
        .expect("read")
        .expect("a reply, not a hangup");
    match WireResponse::decode(&payload).expect("decodable error") {
        WireResponse::Error { code, message } => {
            assert_eq!(code, ServiceError::Protocol(String::new()).code());
            assert!(message.contains("opcode"), "got {message}");
        }
        resp => panic!("unexpected response {resp:?}"),
    }

    // Wrong protocol version: refused by name, same connection usable.
    write_frame(&mut stream, &[WIRE_VERSION + 1, 2, 0, 0, 0, 0]).expect("send wrong version");
    let payload = replies
        .read_from(&mut stream)
        .expect("read")
        .expect("a reply, not a hangup");
    match WireResponse::decode(&payload).expect("decodable error") {
        WireResponse::Error { code, message } => {
            assert_eq!(code, ServiceError::Protocol(String::new()).code());
            assert!(message.contains("wire version"), "got {message}");
        }
        resp => panic!("unexpected response {resp:?}"),
    }

    // Oversized announced length: the server hangs up instead of
    // allocating; later clients are unaffected.
    let mut evil = TcpStream::connect(addr).expect("connect evil");
    evil.write_all(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes())
        .expect("announce absurd frame");
    evil.write_all(&[0u8; 64]).expect("some bytes");
    // Torn frame on another connection: also just a disconnect.
    let mut torn = TcpStream::connect(addr).expect("connect torn");
    torn.write_all(&[9, 0, 0, 0, 1]).expect("partial frame");
    drop(torn);

    let mut healthy = TcpClient::connect(addr).expect("healthy client");
    match healthy
        .serve(
            Request::Predict {
                ip: 1,
                offset: 0,
                ghr: 0,
            },
            None,
        )
        .expect("service survived hostile peers")
    {
        WireResponse::Response(Response::Predicted { .. }) => {}
        resp => panic!("unexpected response {resp:?}"),
    }

    let _ = healthy.shutdown(Duration::from_millis(100));
    let _ = join.join();
}
