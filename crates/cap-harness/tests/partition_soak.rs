//! The partition soak — the capstone gate for partition tolerance.
//!
//! An in-process fleet reached only through seeded [`ChaosProxy`]s.
//! Two phases, two different strengths of claim:
//!
//! **Phase A — exact accounting under full chaos.** Ten thousand
//! requests through proxies injecting latency, resets mid-frame,
//! truncation, opcode garbling, and slow-loris trickle, with scripted
//! black-hole and refuse-connect partition windows *and* a node killed
//! and promoted from a surviving replica mid-stream. The router's
//! ledger must balance exactly: `accepted == answered + shed +
//! failover + other`, agreeing bucket-for-bucket with the client's own
//! tally — no request lost, none double-counted, despite retries
//! (issued only for provably-not-forwarded rejections).
//!
//! **Phase B — bit-identical reconciliation.** Partitions only, no
//! other faults, and only the black-hole mode — whose
//! drop-before-forward guarantee means every failed request provably
//! never reached a node. Successful requests are mirrored in order
//! onto an unpartitioned control fleet; a node is killed *behind* its
//! partition and promoted from the replica its ring successor holds.
//! After the storm, every subject node's state must be **byte
//! identical** to its control twin — the strongest possible statement
//! that the partition neither lost nor duplicated a single training
//! event.

use cap_cluster::prelude::*;
use cap_faults::prelude::{ChaosProxy, NetFaultConfig, NetFaultPlan, PartitionMode};
use cap_obs::Registry;
use cap_service::breaker::BreakerConfig;
use cap_service::net::TcpClient;
use cap_service::prelude::{Request, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// One seed for the whole soak: fault draws, traffic stream, partition
/// windows. A failure replays exactly from this number.
const PLAN_SEED: u64 = 0x9A87_1710_2024_CAFE;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn node_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 128,
        ..ServiceConfig::default()
    }
}

fn observe(ip: u64, actual: u64) -> Request {
    Request::Observe {
        ip,
        offset: 0,
        ghr: 0,
        actual,
    }
}

/// The deterministic traffic stream: `(ip, actual)` pairs.
fn traffic(n: usize) -> Vec<(u64, u64)> {
    let mut state = PLAN_SEED;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            // 48 hot IPs with stride-friendly addresses.
            let ip = 0x4000 + (r % 48) * 0x40;
            let actual = 0x10_0000 + (r >> 8) % 0x4000;
            (ip, actual)
        })
        .collect()
}

/// Client-side tally mirroring the router's accounting buckets.
#[derive(Debug, Default)]
struct Ledger {
    attempts: u64,
    answered: u64,
    shed: u64,
    failover: u64,
    other: u64,
    retries: u64,
}

impl Ledger {
    /// Issues `request`, retrying only rejections that provably never
    /// trained a node (gated or fenced), and tallies every attempt.
    fn drive(&mut self, router: &Router, request: Request) {
        loop {
            self.attempts += 1;
            match router.call(request, None) {
                Ok(_) => {
                    self.answered += 1;
                    return;
                }
                Err(e) if e.is_shed() => {
                    self.shed += 1;
                    return;
                }
                Err(e) => {
                    let retry = e.retry_is_exactly_once();
                    if e.is_failover() {
                        self.failover += 1;
                    } else {
                        self.other += 1;
                    }
                    if retry && self.retries < self.attempts {
                        self.retries += 1;
                        continue;
                    }
                    return;
                }
            }
        }
    }

    fn matches(&self, a: &Accounting) -> bool {
        self.attempts == a.accepted
            && self.answered == a.answered
            && self.shed == a.shed
            && self.failover == a.failover_attributed
            && self.other == a.other_error
    }
}

#[test]
fn phase_a_exact_accounting_under_full_chaos() {
    let total: usize = 10_000;
    let stream = traffic(total);

    let nodes: Vec<LocalNode> = (0..3)
        .map(|_| LocalNode::start(node_config()).expect("node"))
        .collect();
    let chaos = NetFaultConfig {
        p_reset: 0.06,
        p_truncate: 0.04,
        p_garble: 0.05,
        p_slow_loris: 0.02,
        p_latency: 0.15,
        latency_ms: (1, 2),
        fault_frame_horizon: 16,
        loris_pause: Duration::from_micros(100),
    };
    let proxies: Vec<ChaosProxy> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            ChaosProxy::start(n.addr(), NetFaultPlan::new(PLAN_SEED + i as u64, chaos))
                .expect("proxy")
        })
        .collect();
    let addrs: Vec<_> = proxies.iter().map(ChaosProxy::addr).collect();
    let registry = Arc::new(Registry::new());
    let router = Router::new(
        &addrs,
        RouterConfig {
            read_timeout: Some(Duration::from_millis(150)),
            breaker: BreakerConfig {
                failure_threshold: 3,
                close_after: 1,
                cooldown: Duration::from_millis(80),
                jitter: Duration::from_millis(20),
            },
            obs: registry.obs(),
            ..RouterConfig::default()
        },
    )
    .expect("router");
    let router = Arc::new(router);

    // Scripted chaos timeline, in request indices.
    let blackhole = total / 5..total / 5 + total / 20;
    let refuse = total / 2..total / 2 + total / 20;
    let kill_at = total * 7 / 10;
    let ship_every = total / 8;

    let mut ledger = Ledger::default();
    let mut nodes: Vec<Option<LocalNode>> = nodes.into_iter().map(Some).collect();
    let mut replacement: Option<LocalNode> = None;
    for (i, &(ip, actual)) in stream.iter().enumerate() {
        if i > 0 && i % ship_every == 0 {
            // Ships may fail under chaos; the last good replica stands.
            let _ = router.ship_now();
        }
        if i == blackhole.start {
            proxies[1].set_partition(PartitionMode::BlackHole);
        }
        if i == blackhole.end {
            proxies[1].heal();
        }
        if i == refuse.start {
            proxies[2].set_partition(PartitionMode::RefuseConnect);
        }
        if i == refuse.end {
            proxies[2].heal();
        }
        if i == kill_at {
            // Kill node 0 outright, then promote the best surviving
            // replica into its slot (reached directly, not proxied).
            let victim = nodes[0].take().expect("node 0 alive");
            victim
                .stop(Duration::from_millis(200))
                .expect("kill node 0");
            let (bytes, drift) = router.replica_any(0).expect("a replica survived the chaos");
            assert!(
                drift.is_some(),
                "the router-held replica carries an exact bound"
            );
            let restored = LocalNode::start_restored(node_config(), &bytes).expect("restore");
            router.promote(0, restored.addr(), None).expect("promotion");
            replacement = Some(restored);
        }
        ledger.drive(&router, observe(ip, actual));
    }

    // The ledger identity, exact on both sides of the trust boundary.
    let acct = router.accounting();
    assert!(acct.balances(), "router ledger must balance: {acct:?}");
    assert!(
        ledger.matches(&acct),
        "client tally diverged from the router ledger:\n  client {ledger:?}\n  router {acct:?}"
    );
    assert!(
        acct.accepted >= total as u64,
        "retries only add, never subtract"
    );
    assert!(
        acct.answered > (total / 2) as u64,
        "most traffic must survive the chaos: {acct:?}"
    );

    // The chaos actually happened, and was classified.
    let snap = registry.snapshot();
    assert!(
        snap.counter(cap_cluster::names::PARTITION_SUSPECTED)
            .unwrap_or(0)
            > 0,
        "black-hole windows must surface the partition signature"
    );
    assert_eq!(
        snap.counter(cap_cluster::names::REPLICA_PROMOTIONS),
        Some(1),
        "exactly one failover promotion"
    );
    let dropped: u64 = proxies
        .iter()
        .map(|p| p.stats().frames_dropped_partition)
        .sum();
    assert!(dropped > 0, "the black hole must have swallowed frames");
    let injected = proxies.iter().map(ChaosProxy::stats).fold(0u64, |acc, s| {
        acc + s.resets + s.truncations + s.garbles + s.delayed + s.trickled
    });
    assert!(injected > 0, "the fault plan must have fired");

    for p in proxies {
        p.stop();
    }
    for node in nodes.into_iter().flatten().chain(replacement) {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}

/// Pulls a node's live archive directly (not through the router), for
/// the final byte-compare.
fn pull_direct(addr: std::net::SocketAddr) -> Vec<u8> {
    let mut client = TcpClient::connect(addr).expect("connect for final pull");
    client.pull_snapshot().expect("final pull")
}

#[test]
fn phase_b_partition_heals_to_bit_identical_state() {
    let total: usize = 6_000;
    let stream = traffic(total);

    // Subject fleet: two nodes behind quiet proxies (pure pipes plus
    // the partition switch — every failure is attributable to the
    // partition alone). Control fleet: the same two-node shape, bare.
    let subject_nodes: Vec<LocalNode> = (0..2)
        .map(|_| LocalNode::start(node_config()).expect("subject node"))
        .collect();
    let control_nodes: Vec<LocalNode> = (0..2)
        .map(|_| LocalNode::start(node_config()).expect("control node"))
        .collect();
    let proxies: Vec<ChaosProxy> = subject_nodes
        .iter()
        .map(|n| {
            ChaosProxy::start(
                n.addr(),
                NetFaultPlan::new(PLAN_SEED, NetFaultConfig::quiet()),
            )
            .expect("proxy")
        })
        .collect();
    let subject_addrs: Vec<_> = proxies.iter().map(ChaosProxy::addr).collect();
    let control_addrs: Vec<_> = control_nodes.iter().map(LocalNode::addr).collect();
    let registry = Arc::new(Registry::new());
    let subject = Router::new(
        &subject_addrs,
        RouterConfig {
            read_timeout: Some(Duration::from_millis(250)),
            breaker: BreakerConfig {
                failure_threshold: 4,
                close_after: 1,
                cooldown: Duration::from_millis(60),
                jitter: Duration::from_millis(10),
            },
            obs: registry.obs(),
            ..RouterConfig::default()
        },
    )
    .expect("subject router");
    let control = Router::new(&control_addrs, RouterConfig::default()).expect("control router");

    // Same ring config on both → identical ip → slot mapping, so a
    // mirrored request trains the *same shard* on the control side.
    for &(ip, _) in stream.iter().take(64) {
        assert_eq!(subject.node_for_ip(ip).0, control.node_for_ip(ip).0);
    }

    // Timeline: warm traffic → ship (replica generation for shard 0
    // lands on its ring successor) → black-hole node 0's proxy → kill
    // node 0 *behind* the partition → more traffic (shard-0 requests
    // provably never forwarded; shard-1 flows) → heal → promote shard
    // 0 from the successor-held replica → drain the rest.
    let partition_at = total / 3;
    let kill_at = partition_at + total / 10;
    let heal_at = total / 3 * 2;

    let mut subject_nodes: Vec<Option<LocalNode>> = subject_nodes.into_iter().map(Some).collect();
    let mut replacement: Option<LocalNode> = None;
    let mut mirrored = 0u64;
    for (i, &(ip, actual)) in stream.iter().enumerate() {
        if i == partition_at {
            for shipped in subject.ship_now() {
                shipped.expect("pre-partition ship");
            }
            proxies[0].set_partition(PartitionMode::BlackHole);
        }
        if i == kill_at {
            let victim = subject_nodes[0].take().expect("node 0 alive");
            victim
                .stop(Duration::from_millis(200))
                .expect("kill behind partition");
        }
        if i == heal_at {
            proxies[0].heal();
            // The R>1 payoff: shard 0's replica survives on its ring
            // successor (node 1) even though both the node *and* the
            // router-held copy could be gone. Promote from it — the
            // fetched generation is the newest ship, so the drift
            // bound is exact: zero (the partition began at the ship,
            // and every shard-0 request since provably never landed).
            let (from_successor, drift) = subject
                .replica_from_successors(0)
                .expect("ring successor holds shard 0's replica");
            let (local, _) = subject.replica(0).expect("router-held copy");
            assert_eq!(from_successor, local, "successor and router copies agree");
            assert_eq!(
                drift,
                Some(0),
                "kill-behind-partition promotes with zero drift"
            );
            let restored =
                LocalNode::start_restored(node_config(), &from_successor).expect("restore");
            subject
                .promote(0, restored.addr(), None)
                .expect("promotion");
            replacement = Some(restored);
        }
        // Drive the subject; mirror *successes* (in stream order — one
        // driver thread, so per-IP order is preserved by construction)
        // onto the control fleet. Failures are provable non-events on
        // the subject side: black-holed frames were dropped before
        // forwarding, breaker refusals and fence rejections never
        // reached a predictor.
        let mut fenced_retries = 0;
        loop {
            match subject.call(observe(ip, actual), None) {
                Ok(_) => {
                    control
                        .call(observe(ip, actual), None)
                        .expect("control mirrors");
                    mirrored += 1;
                    break;
                }
                Err(e) if e.retry_is_exactly_once() && fenced_retries < 4 => {
                    fenced_retries += 1;
                }
                Err(e) => {
                    assert!(
                        e.is_failover(),
                        "phase B failures must be partition-shaped, got {e:?}"
                    );
                    break;
                }
            }
        }
    }

    // Quiesce and compare: every subject node byte-identical to its
    // control twin. This is the no-loss / no-duplicate proof — one
    // extra or missing training event anywhere would diverge the
    // archives.
    let subject_acct = subject.accounting();
    let control_acct = control.accounting();
    assert!(subject_acct.balances(), "{subject_acct:?}");
    assert_eq!(
        subject_acct.answered, mirrored,
        "every answered request was mirrored exactly once"
    );
    assert_eq!(
        control_acct.answered, mirrored,
        "the control fleet answered every mirrored request"
    );
    assert!(
        subject_acct.failover_attributed > 0,
        "the partition must have cost something: {subject_acct:?}"
    );

    let subject_final_0 = pull_direct(replacement.as_ref().expect("promoted").addr());
    let subject_final_1 = pull_direct(subject_nodes[1].as_ref().expect("node 1 alive").addr());
    let control_final_0 = pull_direct(control_nodes[0].addr());
    let control_final_1 = pull_direct(control_nodes[1].addr());
    assert_eq!(
        subject_final_0, control_final_0,
        "shard 0 (killed behind the partition, promoted from the successor replica) \
         must heal to byte-identical state"
    );
    assert_eq!(
        subject_final_1, control_final_1,
        "shard 1 (never partitioned) must match its control twin byte for byte"
    );

    // The partition was real and was classified as one.
    let snap = registry.snapshot();
    assert!(
        snap.counter(cap_cluster::names::PARTITION_SUSPECTED)
            .unwrap_or(0)
            > 0
    );
    assert!(proxies[0].stats().frames_dropped_partition > 0);

    for p in proxies {
        p.stop();
    }
    for node in subject_nodes
        .into_iter()
        .flatten()
        .chain(replacement)
        .chain(control_nodes)
    {
        node.stop(Duration::from_millis(200)).expect("stop node");
    }
}
