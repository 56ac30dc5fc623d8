//! The multi-process cluster chaos soak — the capstone gate for the
//! sharded fleet.
//!
//! Real `simulate serve` processes (spawned via `CARGO_BIN_EXE`), a
//! real router over real sockets, seeded chaos plans. Two properties
//! are on trial:
//!
//! 1. **Full request accounting.** Every request the router accepts is
//!    answered or attributed — shed or failover — never lost, even
//!    while nodes are SIGKILLed mid-traffic and replacements are
//!    promoted from shipped replicas.
//! 2. **Drift-free rolling restarts.** Restarting the whole fleet node
//!    by node under load — drain, ship the final archive, restore a
//!    fresh process from it, flip the routing epoch — ends with every
//!    node bit-identical to its twin in an unrestarted control fleet.

use cap_cluster::prelude::{ClusterError, Router, RouterConfig};
use cap_harness::checkpoint::write_checkpoint;
use cap_service::prelude::{Request, TcpClient};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One seed for the whole chaos plan: kill points, kill order, and the
/// traffic stream all derive from it, so a failure replays exactly.
const PLAN_SEED: u64 = 0x0C1A_0550_AB1E_5EED;

const WORKERS: &str = "2";
const QUEUE: &str = "64";

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fleet node as a real child process.
struct ChildNode {
    child: Child,
    addr: SocketAddr,
}

fn spawn_serve(dir: &Path, seed: u64, resume: bool) -> ChildNode {
    std::fs::create_dir_all(dir).expect("node dir");
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simulate"));
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(WORKERS)
        .arg("--queue")
        .arg(QUEUE)
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--snapshot-dir")
        .arg(dir)
        .arg("--port-file")
        .arg(&port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    let child = cmd.spawn().expect("spawn serve child");
    let deadline = Instant::now() + Duration::from_secs(20);
    let port = loop {
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse::<u16>().ok())
        {
            break port;
        }
        assert!(
            Instant::now() < deadline,
            "child never published its port in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    ChildNode {
        child,
        addr: format!("127.0.0.1:{port}").parse().expect("loopback addr"),
    }
}

/// A fleet of child processes with kill-on-drop cleanup, so a failing
/// assertion never leaks servers or temp state.
struct Fleet {
    base: PathBuf,
    slots: Vec<Option<ChildNode>>,
}

impl Fleet {
    fn start(name: &str, n: usize) -> Self {
        let base =
            std::env::temp_dir().join(format!("cap-cluster-soak-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let slots = (0..n)
            .map(|i| {
                Some(spawn_serve(
                    &base.join(format!("node-{i}")),
                    0xF1EE7 + i as u64,
                    false,
                ))
            })
            .collect();
        Self { base, slots }
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.slots
            .iter()
            .map(|s| s.as_ref().expect("node running").addr)
            .collect()
    }

    fn addr(&self, i: usize) -> SocketAddr {
        self.slots[i].as_ref().expect("node running").addr
    }

    /// SIGKILL — the chaos path. The slot is left empty until a
    /// replacement is installed.
    fn kill(&mut self, i: usize) {
        let mut node = self.slots[i].take().expect("node to kill");
        let _ = node.child.kill();
        let _ = node.child.wait();
    }

    /// Replaces slot `i` with a fresh process restored from `archive`
    /// (a shipped replica or a migration's final ship).
    fn respawn_restored(&mut self, i: usize, tag: &str, archive: &[u8]) -> SocketAddr {
        let dir = self.base.join(format!("{tag}-{i}"));
        std::fs::create_dir_all(&dir).expect("respawn dir");
        write_checkpoint(&dir, 1, archive).expect("publish replica as checkpoint");
        let node = spawn_serve(&dir, 0xF1EE7 + i as u64, true);
        let addr = node.addr;
        let old = self.slots[i].replace(node);
        if let Some(mut old) = old {
            // A drained predecessor is retired only after its
            // replacement exists — hard kill is fine post-ship.
            let _ = old.child.kill();
            let _ = old.child.wait();
        }
        addr
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(node) = slot.as_mut() {
                let _ = node.child.kill();
                let _ = node.child.wait();
            }
        }
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// The deterministic traffic stream: request `r` is an observe for a
/// fixed IP set, walking a per-IP stride so predictors actually train.
fn request_at(ips: &[u64], r: u64) -> Request {
    let ip = ips[(r as usize) % ips.len()];
    let round = r / ips.len() as u64;
    Request::Observe {
        ip,
        offset: 0,
        ghr: 0,
        actual: 0x10_0000 + ip * 8 + round * 64,
    }
}

fn soak_ips() -> Vec<u64> {
    (0..96u64).map(|i| 0x4000 + i * 0x40).collect()
}

/// ≥3 nodes, ≥10k requests, two seeded SIGKILLs mid-traffic, replicas
/// promoted — and at the end the router's ledger balances to the
/// request: accepted == answered + shed + failover + other, with the
/// same totals the client observed.
#[test]
fn chaos_soak_accounts_every_request_under_seeded_kills() {
    const TOTAL: u64 = 10_800;
    const SHIP_EVERY: u64 = 500;
    const RESPAWN_AFTER: u64 = 400;

    let mut fleet = Fleet::start("chaos", 3);
    let router = Router::new(&fleet.addrs(), RouterConfig::default()).expect("router");
    let ips = soak_ips();

    // The seeded chaos plan: two kills, distinct nodes, far enough
    // apart that the first replacement is promoted (and shipping has
    // resumed) before the second strike.
    let mut rng = PLAN_SEED;
    let first_kill = 2_500 + splitmix(&mut rng) % 1_000;
    let second_kill = 6_500 + splitmix(&mut rng) % 1_000;
    let first_victim = (splitmix(&mut rng) % 3) as usize;
    let second_victim = (first_victim + 1 + (splitmix(&mut rng) % 2) as usize) % 3;
    let mut plan = vec![(first_kill, first_victim), (second_kill, second_victim)];
    let mut pending_respawn: Option<(u64, usize)> = None;

    let (mut answered, mut shed, mut failover, mut other) = (0u64, 0u64, 0u64, 0u64);
    for r in 0..TOTAL {
        if r % SHIP_EVERY == 0 && r > 0 {
            // A dead node's ship fails; that is the point of replicas.
            for _ in router.ship_now() {}
        }
        if plan.first().is_some_and(|&(at, _)| at == r) {
            let (_, victim) = plan.remove(0);
            fleet.kill(victim);
            pending_respawn = Some((r + RESPAWN_AFTER, victim));
        }
        if pending_respawn.is_some_and(|(at, _)| at == r) {
            let (_, victim) = pending_respawn.take().expect("checked");
            let (replica, drift) = router
                .replica(victim)
                .expect("shipping ran before every kill");
            assert!(
                drift <= SHIP_EVERY + RESPAWN_AFTER,
                "drift bound blew past a ship interval: {drift}"
            );
            let addr = fleet.respawn_restored(victim, "respawn", &replica);
            router.promote(victim, addr, None).expect("promotion");
        }
        match router.call(request_at(&ips, r), Some(Duration::from_secs(5))) {
            Ok(_) => answered += 1,
            Err(e) if e.is_shed() => shed += 1,
            Err(e) if e.is_failover() => failover += 1,
            Err(_) => other += 1,
        }
    }

    let acct = router.accounting();
    assert!(acct.balances(), "ledger must balance: {acct:?}");
    assert_eq!(acct.accepted, TOTAL, "every request entered the ledger");
    assert_eq!(
        (
            acct.answered,
            acct.shed,
            acct.failover_attributed,
            acct.other_error
        ),
        (answered, shed, failover, other),
        "the router's ledger and the client's tally must agree"
    );
    assert_eq!(other, 0, "nothing may fall outside the attribution buckets");
    assert!(
        failover > 0,
        "the seeded kills must actually surface as failover traffic"
    );
    assert!(
        answered >= TOTAL - 2 * (RESPAWN_AFTER + SHIP_EVERY),
        "failover windows are bounded: only {answered} of {TOTAL} answered"
    );
    assert_eq!(router.epoch(), 2, "two promotions, two epoch flips");
}

/// A full rolling restart under load: each node is drained, its final
/// archive ships into a brand-new process, the routing epoch flips with
/// the differential-twin proof, and gated requests retry (exactly-once
/// safe) after promotion. The restarted fleet must end bit-identical,
/// node for node, to a control fleet that was never touched.
#[test]
fn rolling_restart_is_bit_identical_to_an_unrestarted_control_fleet() {
    const WARMUP_ROUNDS: u64 = 18;
    const ROUNDS_PER_RESTART: u64 = 5;
    const COOLDOWN_ROUNDS: u64 = 8;

    let control_fleet = Fleet::start("control", 3);
    let mut subject_fleet = Fleet::start("subject", 3);
    let control = Router::new(&control_fleet.addrs(), RouterConfig::default()).expect("control");
    let subject = Router::new(&subject_fleet.addrs(), RouterConfig::default()).expect("subject");
    let ips = soak_ips();
    let per_round = ips.len() as u64;

    // Both fleets see the identical request stream; the subject's
    // gated requests are retried in arrival order, so every per-IP
    // sequence — the only state a shard has — matches the control's.
    let mut sent = 0u64;
    let mut drive_round = |draining: Option<usize>, queue: &mut Vec<Request>| {
        let start = sent;
        for r in start..start + per_round {
            let request = request_at(&ips, r);
            control
                .call(request, Some(Duration::from_secs(5)))
                .expect("control fleet is never disturbed");
            match (
                draining,
                subject.call(request, Some(Duration::from_secs(5))),
            ) {
                (_, Ok(_)) => {}
                (Some(d), Err(ClusterError::Migrating { node })) => {
                    assert_eq!(node, d);
                    queue.push(request);
                }
                (_, Err(e)) => panic!("rolling restart dropped a request: {e}"),
            }
            sent += 1;
        }
    };

    for _ in 0..WARMUP_ROUNDS {
        drive_round(None, &mut Vec::new());
    }

    // The rolling restart: one node at a time, traffic never pausing.
    for node in 0..3 {
        let final_archive = subject.drain_node(node).expect("drain");
        let mut gated_requests = Vec::new();
        for _ in 0..ROUNDS_PER_RESTART {
            drive_round(Some(node), &mut gated_requests);
        }
        assert!(
            !gated_requests.is_empty(),
            "a third of the key space must hit the draining node"
        );

        let addr = subject_fleet.respawn_restored(node, "restart", &final_archive);
        let epoch = subject
            .promote(node, addr, Some(&final_archive))
            .expect("differential twin proves zero drift");
        assert_eq!(epoch, node as u64 + 1);

        // Migration errors are exactly-once safe: the node never saw
        // the request, so the retry cannot double-train.
        for request in gated_requests {
            subject
                .call(request, Some(Duration::from_secs(5)))
                .expect("replay after promotion");
        }
    }

    for _ in 0..COOLDOWN_ROUNDS {
        drive_round(None, &mut Vec::new());
    }

    // Exact accounting on both sides: the control answered everything
    // first try; the subject answered everything too, with its gated
    // attempts attributed to failover and balanced in the ledger.
    let c = control.accounting();
    let s = subject.accounting();
    assert!(c.balances() && s.balances());
    assert_eq!(c.answered, sent);
    assert_eq!(
        s.answered, sent,
        "every request is eventually answered once"
    );
    assert_eq!(
        s.failover_attributed,
        s.accepted - sent,
        "retries account for the gap"
    );

    // The capstone: node for node, the restarted fleet's live state is
    // bit-identical to the control's.
    for node in 0..3 {
        let pull = |addr: SocketAddr| {
            TcpClient::connect(addr)
                .expect("connect for final pull")
                .pull_snapshot()
                .expect("final snapshot pull")
        };
        let control_bytes = pull(control_fleet.addr(node));
        let subject_bytes = pull(subject_fleet.addr(node));
        assert_eq!(
            control_bytes, subject_bytes,
            "node {node} diverged across the rolling restart"
        );
    }
}
