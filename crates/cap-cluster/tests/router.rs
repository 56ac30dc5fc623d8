//! Router integration: a real in-process fleet behind real sockets —
//! routing, accounting, failover from shipped replicas, zero-drift
//! live migration, runtime ring resizing, epoch fencing, replica
//! placement on ring successors, partition-shaped failures through a
//! chaos proxy, and hostile peers on the snapshot-ship path.

use cap_cluster::prelude::*;
use cap_faults::prelude::{ChaosProxy, NetFaultConfig, NetFaultPlan, PartitionMode};
use cap_service::prelude::{Request, Response, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn node_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn start_fleet(n: usize) -> (Vec<LocalNode>, Router) {
    let nodes: Vec<LocalNode> = (0..n)
        .map(|_| LocalNode::start(node_config()).expect("start node"))
        .collect();
    let addrs: Vec<_> = nodes.iter().map(LocalNode::addr).collect();
    let router = Router::new(&addrs, RouterConfig::default()).expect("router");
    (nodes, router)
}

fn observe(ip: u64, actual: u64) -> Request {
    Request::Observe {
        ip,
        offset: 0,
        ghr: 0,
        actual,
    }
}

/// IPs that the router currently maps to `node`.
fn ips_owned_by(router: &Router, node: usize, want: usize) -> Vec<u64> {
    (0..100_000u64)
        .map(|i| 0x400 + i * 0x40)
        .filter(|&ip| router.node_for_ip(ip).0 == node)
        .take(want)
        .collect()
}

#[test]
fn fleet_routes_deterministically_and_accounts_every_request() {
    let (nodes, router) = start_fleet(3);

    // Train a stride per IP across the whole fleet.
    let ips: Vec<u64> = (0..60u64).map(|i| 0x1000 + i * 0x100).collect();
    let mut sent = 0u64;
    for round in 0..50u64 {
        for &ip in &ips {
            let resp = router
                .call(
                    observe(ip, 0x8000 + ip + round * 8),
                    Some(Duration::from_secs(2)),
                )
                .expect("routed observe");
            assert!(matches!(resp, Response::Observed { .. }));
            sent += 1;
        }
    }

    // Same IP, same node, every time; answers span more than one node.
    let owners: Vec<usize> = ips.iter().map(|&ip| router.node_for_ip(ip).0).collect();
    assert_eq!(
        owners,
        ips.iter()
            .map(|&ip| router.node_for_ip(ip).0)
            .collect::<Vec<_>>()
    );
    let distinct: std::collections::BTreeSet<_> = owners.iter().copied().collect();
    assert!(distinct.len() > 1, "60 IPs must spread across the fleet");

    let acct = router.accounting();
    assert!(acct.balances(), "accounting must balance: {acct:?}");
    assert_eq!(acct.accepted, sent);
    assert_eq!(acct.answered, sent, "a healthy fleet answers everything");

    // The fleet obs view is the sum of the per-node views.
    let (merged, reporting) = router.fleet_obs();
    assert_eq!(reporting, 3);
    assert_eq!(
        merged.counter(cap_service::names::SERVED),
        Some(sent),
        "merged fleet telemetry accounts every served request"
    );

    for node in nodes {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

#[test]
fn failover_promotes_the_shipped_replica_with_an_exact_drift_bound() {
    let (mut nodes, router) = start_fleet(3);
    let router = Arc::new(router);
    let victim = 0usize;
    let ips = ips_owned_by(&router, victim, 8);
    assert_eq!(ips.len(), 8);

    // Phase 1: traffic, then ship replicas of the whole fleet.
    for round in 0..30u64 {
        for &ip in &ips {
            router
                .call(observe(ip, 0x5000 + round * 8), None)
                .expect("observe");
        }
    }
    for shipped in router.ship_now() {
        shipped.expect("every node ships");
    }
    assert_eq!(router.drift(victim), 0, "a ship resets the drift counter");

    // Phase 2: exactly 24 more requests land on the victim → drift 24.
    for round in 0..3u64 {
        for &ip in &ips {
            router
                .call(observe(ip, 0x6000 + round * 8), None)
                .expect("observe");
        }
    }
    assert_eq!(router.drift(victim), 24);

    // The victim dies (stopped out from under the router).
    let dead = nodes.remove(victim);
    dead.stop(Duration::from_millis(200)).expect("victim exits");

    // Calls to its shards now fail, attributed to failover — and the
    // accounting still balances.
    let before = router.accounting();
    let err = router
        .call(observe(ips[0], 0x7000), None)
        .expect_err("dead node");
    assert!(err.is_failover(), "got {err:?}");
    let after = router.accounting();
    assert_eq!(after.failover_attributed, before.failover_attributed + 1);
    assert!(after.balances());

    // Promote the shipped replica: bounded, measured drift.
    let (replica, drift) = router.replica(victim).expect("replica was shipped");
    assert_eq!(drift, 24, "drift bound is exact, not estimated");
    let replacement = LocalNode::start_restored(node_config(), &replica).expect("warm replica");
    let epoch_before = router.epoch();
    let epoch = router
        .promote(victim, replacement.addr(), None)
        .expect("promotion");
    assert_eq!(epoch, epoch_before + 1, "promotion flips the routing epoch");

    // Traffic to the victim's shards flows again, same routing.
    for &ip in &ips {
        router
            .call(observe(ip, 0x9000), None)
            .expect("served by replacement");
        assert_eq!(router.node_for_ip(ip).0, victim, "routing never moved");
    }
    assert!(router.accounting().balances());

    replacement
        .stop(Duration::from_millis(200))
        .expect("stop replacement");
    for node in nodes {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

#[test]
fn live_migration_is_provably_zero_drift() {
    let (mut nodes, router) = start_fleet(3);
    let moving = 1usize;
    let ips = ips_owned_by(&router, moving, 6);

    for round in 0..40u64 {
        for &ip in &ips {
            router
                .call(observe(ip, 0x4000 + round * 16), None)
                .expect("observe");
        }
    }

    // Drain: the final archive is pulled with the node quiesced, and
    // requests meanwhile get the retryable Migrating error without ever
    // touching the node.
    let final_archive = router.drain_node(moving).expect("drain");
    match router.call(observe(ips[0], 0xA000), None) {
        Err(ClusterError::Migrating { node }) => assert_eq!(node, moving),
        other => panic!("expected Migrating, got {other:?}"),
    }
    assert!(
        router
            .call(observe(ips[0], 0xA000), None)
            .expect_err("still gated")
            .retry_is_exactly_once(),
        "migration errors must be safe to retry"
    );

    // A *cold* replacement fails the differential-twin proof...
    let impostor = LocalNode::start(node_config()).expect("cold node");
    match router.promote(moving, impostor.addr(), Some(&final_archive)) {
        Err(ClusterError::DriftDetected { node, .. }) => assert_eq!(node, moving),
        other => panic!("expected DriftDetected, got {other:?}"),
    }
    assert!(
        matches!(
            router.call(observe(ips[0], 0xA000), None),
            Err(ClusterError::Migrating { .. })
        ),
        "a failed proof leaves the node gated"
    );

    // ...and the restored twin passes it: bit-identical, zero drift.
    let replacement =
        LocalNode::start_restored(node_config(), &final_archive).expect("restored twin");
    let epoch = router
        .promote(moving, replacement.addr(), Some(&final_archive))
        .expect("zero-drift promotion");
    assert_eq!(epoch, 1);

    // The old node is retired only after the flip; traffic never gaps.
    let old = nodes.remove(moving);
    old.stop(Duration::from_millis(200))
        .expect("retire old node");
    for &ip in &ips {
        router
            .call(observe(ip, 0xB000), None)
            .expect("served post-flip");
    }
    assert!(router.accounting().balances());

    impostor
        .stop(Duration::from_millis(200))
        .expect("stop impostor");
    replacement
        .stop(Duration::from_millis(200))
        .expect("stop replacement");
    for node in nodes {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

#[test]
fn a_lying_node_cannot_break_the_shipping_path() {
    // A "node" that answers every frame with a torn reply: announces a
    // big payload, sends half, hangs up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind liar");
    let addr = listener.local_addr().expect("liar addr");
    let liar = std::thread::spawn(move || {
        for stream in listener.incoming().take(2) {
            let Ok(mut stream) = stream else { continue };
            let mut len = [0u8; 4];
            use std::io::{Read, Write};
            if stream.read_exact(&mut len).is_err() {
                continue;
            }
            let announced = u32::from_le_bytes(len) as usize;
            let mut payload = vec![0u8; announced];
            let _ = stream.read_exact(&mut payload);
            // Announce 4 KiB, deliver half, vanish mid-archive.
            let _ = stream.write_all(&4096u32.to_le_bytes());
            let _ = stream.write_all(&[0u8; 2048]);
        }
    });

    let router = Router::new(&[addr], RouterConfig::default()).expect("router");
    match router.ship_now().remove(0) {
        Err(ClusterError::NodeUnavailable { node, .. }) => assert_eq!(node, 0),
        other => panic!("expected NodeUnavailable, got {other:?}"),
    }
    // The call path survives the same liar with a structured error.
    let err = router
        .call(observe(1, 2), None)
        .expect_err("liar cannot serve");
    assert!(err.is_failover());
    assert!(router.accounting().balances());
    drop(router);
    let _ = liar.join();
}

/// A hostile "node" that answers control frames correctly but tears
/// every `OP_SNAPSHOT_PULL` reply mid-stream: announces a 4 KiB
/// archive, delivers half, hangs up. Everything else gets a structured
/// protocol refusal.
fn spawn_hostile_pull_peer() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use cap_service::wire::{write_frame, FrameReader, WireRequest, WireResponse, MAX_FRAME_LEN};
    use std::io::Write;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind hostile peer");
    let addr = listener.local_addr().expect("hostile addr");
    let join = std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut requests = FrameReader::new(MAX_FRAME_LEN);
            while let Ok(Some(payload)) = requests.read_from(&mut stream) {
                match WireRequest::decode(&payload) {
                    Ok(WireRequest::Fence { .. }) => {
                        if write_frame(&mut stream, &WireResponse::FenceAck.encode()).is_err() {
                            break;
                        }
                    }
                    Ok(WireRequest::SnapshotPull) => {
                        let _ = stream.write_all(&4096u32.to_le_bytes());
                        let _ = stream.write_all(&[0u8; 2048]);
                        return; // mid-stream reset: drop listener and all
                    }
                    Ok(WireRequest::Shutdown { .. }) => {
                        let _ = write_frame(&mut stream, &WireResponse::ShutdownAck.encode());
                        return;
                    }
                    _ => {
                        let refuse = WireResponse::from_error(
                            &cap_service::prelude::ServiceError::Protocol("no".into()),
                        );
                        if write_frame(&mut stream, &refuse.encode()).is_err() {
                            break;
                        }
                    }
                }
            }
        }
    });
    (addr, join)
}

#[test]
fn a_mid_stream_reset_during_snapshot_pull_discards_the_partial_archive() {
    let (nodes, router) = start_fleet(1);
    let ips = ips_owned_by(&router, 0, 4);

    // A healthy ship first: the router holds a good replica.
    for round in 0..20u64 {
        for &ip in &ips {
            router
                .call(observe(ip, 0x3000 + round * 8), None)
                .expect("observe");
        }
    }
    router.ship_now().remove(0).expect("healthy ship");
    let (good, _) = router.replica(0).expect("good replica stored");

    // The node "goes hostile": a peer that acks fences but tears every
    // snapshot pull mid-archive. (Promotion reaches it because the
    // fence roundtrip — its reachability proof — succeeds.)
    let (hostile_addr, hostile) = spawn_hostile_pull_peer();
    nodes.into_iter().for_each(|n| {
        n.stop(Duration::from_millis(200))
            .expect("retire real node");
    });
    router
        .promote(0, hostile_addr, None)
        .expect("hostile acks the fence");

    // The migration pull tears mid-stream → a structured transport
    // failure, never a panic, never a partial archive.
    match router.drain_node(0) {
        Err(ClusterError::NodeUnavailable { node, .. }) => assert_eq!(node, 0),
        other => panic!("expected NodeUnavailable, got {other:?}"),
    }

    // The partial archive was discarded: the router still holds the
    // pre-reset replica byte for byte, and the node stays gated.
    let (still, _) = router.replica(0).expect("replica survives the torn pull");
    assert_eq!(
        still, good,
        "a torn pull must never replace the good replica"
    );
    assert!(matches!(
        router.call(observe(ips[0], 0xC000), None),
        Err(ClusterError::Migrating { .. })
    ));

    // Recovery still demands proof: a twin restored from the *good*
    // replica passes the byte-compare and takes over.
    let twin = LocalNode::start_restored(node_config(), &good).expect("twin");
    router
        .promote(0, twin.addr(), Some(&good))
        .expect("proven promotion");
    router
        .call(observe(ips[0], 0xD000), None)
        .expect("served post-promotion");
    assert!(router.accounting().balances());

    twin.stop(Duration::from_millis(200)).expect("stop twin");
    drop(router);
    let _ = hostile.join();
}

#[test]
fn replicas_land_on_ring_successors_and_survive_router_side_loss() {
    let (nodes, router) = start_fleet(3);
    let ips = ips_owned_by(&router, 0, 6);

    for round in 0..25u64 {
        for &ip in &ips {
            router
                .call(observe(ip, 0x2000 + round * 8), None)
                .expect("observe");
        }
    }
    for shipped in router.ship_now() {
        shipped.expect("every node ships");
    }

    // R = 2 (the default): shard 0's archive must be fetchable from its
    // ring successor, identical to the router-held copy, with the same
    // exact drift bound (the fetched generation is the newest ship).
    let (local, drift_local) = router.replica(0).expect("router-held replica");
    let (fetched, drift) = router
        .replica_from_successors(0)
        .expect("successor holds shard 0's replica");
    assert_eq!(fetched, local, "successor copy is byte-identical");
    assert_eq!(
        drift,
        Some(drift_local),
        "newest generation carries the exact bound"
    );
    assert_eq!(router.replica_any(0).expect("some copy survives").0, local);

    for node in nodes {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

#[test]
fn runtime_resize_moves_keys_minimally_and_fences_stale_epochs() {
    let (mut nodes, router) = start_fleet(3);
    let probe_ips: Vec<u64> = (0..2_000u64).map(|i| 0x400 + i * 0x40).collect();
    let owners_before: Vec<usize> = probe_ips
        .iter()
        .map(|&ip| router.node_for_ip(ip).0)
        .collect();

    // Grow: the new member takes over only the keys it wins.
    let grown = LocalNode::start(node_config()).expect("fourth node");
    let (new_index, epoch) = router.add_node(grown.addr()).expect("add node");
    assert_eq!((new_index, epoch), (3, 1));
    assert_eq!(router.live_node_count(), 4);
    let mut moved = 0usize;
    for (&ip, &before) in probe_ips.iter().zip(&owners_before) {
        let now = router.node_for_ip(ip).0;
        if now != before {
            assert_eq!(
                now, new_index,
                "key {ip:#x} moved {before}→{now}, not to the new node"
            );
            moved += 1;
        }
    }
    assert!(moved > 0, "a grown ring must hand the new member some keys");
    nodes.push(grown);

    // Traffic flows across the resized ring, including to the new node.
    for &ip in probe_ips.iter().take(200) {
        router
            .call(observe(ip, 0xE000), None)
            .expect("served post-grow");
    }

    // The resize re-fenced the fleet: a frame stamped with the old
    // epoch is refused by the node *before* training.
    let stale_victim = router.node_for_ip(probe_ips[0]).0;
    let mut stale = NodeLink::new(stale_victim, nodes[stale_victim].addr());
    match stale.serve(observe(probe_ips[0], 0xF000), None, Some(0)) {
        Err(ClusterError::Remote { code, .. }) => {
            assert_eq!(code, cap_service::prelude::ServiceError::FENCED_CODE);
        }
        other => panic!("expected a fence rejection, got {other:?}"),
    }
    // The router itself always stamps the current epoch, so its own
    // traffic still flows.
    router
        .call(observe(probe_ips[0], 0xF100), None)
        .expect("current epoch flows");

    // Shrink: removing a member strands only its keys and returns its
    // drift-free final archive.
    let owners_mid: Vec<usize> = probe_ips
        .iter()
        .map(|&ip| router.node_for_ip(ip).0)
        .collect();
    let (archive, epoch) = router.remove_node(1).expect("remove node");
    assert_eq!(epoch, 2);
    assert!(
        archive
            .expect("reachable node yields a final archive")
            .len()
            > 8
    );
    assert_eq!(router.live_node_count(), 3);
    for (&ip, &mid) in probe_ips.iter().zip(&owners_mid) {
        let now = router.node_for_ip(ip).0;
        assert_ne!(now, 1, "retired members own nothing");
        if mid != 1 {
            assert_eq!(
                now, mid,
                "key {ip:#x} moved though member 1 owned neither end"
            );
        }
    }
    for &ip in probe_ips.iter().take(200) {
        router
            .call(observe(ip, 0xF200), None)
            .expect("served post-shrink");
    }
    assert!(router.accounting().balances());

    for node in nodes {
        // Node 1 was removed from the ring but its process is still
        // running; a plain stop covers all of them.
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

#[test]
fn a_black_hole_partition_reads_as_timeouts_and_the_breaker_recovers_after_heal() {
    // One real node reached only through a chaos proxy. Latency just
    // *below* the read deadline must not trip anything; a black-hole
    // partition must surface as the timeout signature, trip the
    // breaker, and heal cleanly through the half-open probe.
    let node = LocalNode::start(node_config()).expect("node");
    let proxy = ChaosProxy::start(
        node.addr(),
        NetFaultPlan::new(0xB1AC, NetFaultConfig::quiet()),
    )
    .expect("proxy");
    let config = RouterConfig {
        read_timeout: Some(Duration::from_millis(250)),
        breaker: cap_service::breaker::BreakerConfig {
            failure_threshold: 2,
            close_after: 1,
            cooldown: Duration::from_millis(100),
            jitter: Duration::from_millis(0),
        },
        ..RouterConfig::default()
    };
    let router = Router::new(&[proxy.addr()], config).expect("router");

    router
        .call(observe(0x1000, 0x11), None)
        .expect("clean pipe serves");

    // Latency just below the deadline: slow but healthy.
    let slow = ChaosProxy::start(
        node.addr(),
        NetFaultPlan::new(
            0x0510,
            NetFaultConfig {
                p_latency: 1.0,
                latency_ms: (100, 100),
                ..NetFaultConfig::quiet()
            },
        ),
    )
    .expect("slow proxy");
    let slow_router = Router::new(
        &[slow.addr()],
        RouterConfig {
            read_timeout: Some(Duration::from_millis(250)),
            ..RouterConfig::default()
        },
    )
    .expect("slow router");
    for i in 0..3u64 {
        slow_router
            .call(observe(0x2000 + i, 0x22), None)
            .expect("sub-deadline latency still serves");
    }
    slow.stop();

    // Black hole: frames are swallowed before forwarding → the timeout
    // signature, twice → breaker open → refusals without an attempt.
    proxy.set_partition(PartitionMode::BlackHole);
    for _ in 0..2 {
        let err = router
            .call(observe(0x1000, 0x33), None)
            .expect_err("black-holed");
        assert!(err.is_partition_suspect(), "got {err:?}");
    }
    match router
        .call(observe(0x1000, 0x44), None)
        .expect_err("breaker open")
    {
        ClusterError::NodeUnavailable { kind, .. } => {
            assert_eq!(kind, UnavailableKind::Breaker);
        }
        other => panic!("expected a breaker refusal, got {other:?}"),
    }
    let dropped = proxy.stats().frames_dropped_partition;
    assert!(
        dropped >= 2,
        "the proxy swallowed {dropped} frames pre-forward"
    );

    // Heal → cooldown → the half-open probe succeeds → traffic flows.
    proxy.heal();
    std::thread::sleep(Duration::from_millis(150));
    let probed = router.probe_now().remove(0);
    assert!(probed.is_ok(), "half-open probe after heal: {probed:?}");
    router
        .call(observe(0x1000, 0x55), None)
        .expect("served after heal");
    assert!(router.accounting().balances());

    proxy.stop();
    node.stop(Duration::from_millis(200)).expect("stop node");
}

#[test]
fn latency_above_the_deadline_is_the_partition_signature() {
    let node = LocalNode::start(node_config()).expect("node");
    let proxy = ChaosProxy::start(
        node.addr(),
        NetFaultPlan::new(
            0xDEAD,
            NetFaultConfig {
                p_latency: 1.0,
                latency_ms: (600, 600),
                ..NetFaultConfig::quiet()
            },
        ),
    )
    .expect("proxy");
    let router = Router::new(
        &[proxy.addr()],
        RouterConfig {
            read_timeout: Some(Duration::from_millis(150)),
            ..RouterConfig::default()
        },
    )
    .expect("router");
    let err = router
        .call(observe(0x9999, 0x1), None)
        .expect_err("over deadline");
    assert!(err.is_partition_suspect(), "got {err:?}");
    assert!(router.accounting().balances());
    proxy.stop();
    node.stop(Duration::from_millis(200)).expect("stop node");
}
