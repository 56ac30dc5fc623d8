//! `replay-direct` and `replay-fleet`: closed-loop `Observe` traffic
//! from one client, built from one trace per suite exactly as
//! `simulate client --trace` builds it.
//!
//! `replay-direct` sends it over one connection to an in-process
//! `LocalNode` (the `simulate serve` set-up). `replay-fleet` sends it
//! through an in-process `Router` over two `LocalNode`s while a keeper
//! thread probes and ships on `simulate route`'s default cadence. Each
//! reply is checked afterwards against in-process `ServiceHandle`
//! replays of the same requests under the same `ServiceConfig`.

use crate::common::{peak_rss_mib, repeat_setup, Outcome, RunArgs, SETUP_REPS};
use crate::inputs::{generate, observe_stream, one_per_suite, stream_digest, Fnv};
use crate::stats::{Sliced, Summary};
use cap_cluster::prelude::{LocalNode, Router, RouterConfig};
use cap_obs::Registry;
use cap_service::net::TcpClient;
use cap_service::service::{Request, Response, Service, ServiceConfig};
use cap_service::wire::WireResponse;
use cap_trace::Trace;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Loads generated per trace. Eight traces make the stream, short enough
/// that every run completes a whole pass of it (so `hybrid_rate_pct`,
/// taken over that first pass, does not depend on speed); a run that
/// outlasts it starts over on the warm predictors.
pub const LOADS_PER_TRACE: usize = 6_000;

/// `simulate route`'s default probe cadence.
const PROBE_EVERY: Duration = Duration::from_millis(200);
/// `simulate route`'s default ship cadence.
const SHIP_EVERY: Duration = Duration::from_millis(500);
/// The keeper's polling tick (as in `simulate route`).
const KEEPER_TICK: Duration = Duration::from_millis(50);
/// How long fleet set-up yields before its first probe (see
/// [`Started::start`]).
const SETTLE: Duration = Duration::from_millis(2);
/// Drain granted to nodes at teardown.
const DRAIN: Duration = Duration::from_millis(500);
/// Slices the timed round trips are cut into (see [`Sliced`]); the
/// end-to-end metrics come from the fastest slice.
const SLICES: usize = 100;
/// Requests a timed loop reserves room for: far more than a minute of
/// round trips at loopback speed.
const RESERVE: usize = 1 << 23;
/// Replies folded into one digest (see [`Replies`]).
const REPLY_BLOCK: usize = 1024;

/// Which request path a replay takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One connection to one node.
    Direct,
    /// Through the router over two nodes.
    Fleet,
}

/// A service configured the way `simulate serve` configures it: the
/// defaults plus a live telemetry registry.
#[must_use]
pub fn served_config() -> (ServiceConfig, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let config = ServiceConfig {
        obs: registry.obs(),
        ..ServiceConfig::default()
    };
    (config, registry)
}

/// What the keeper measured while it ran.
#[derive(Debug, Default)]
pub struct KeeperLog {
    /// Wall time of every `ship_now`, ms.
    pub ship_ms: Vec<f64>,
    /// Wall time of every `probe_now`, µs.
    pub probe_us: Vec<f64>,
    /// Per-node ships or probes that failed.
    pub errors: u64,
}

/// The fleet's background duties on one thread, as `simulate route`
/// runs them.
#[derive(Debug)]
pub struct Keeper {
    stop: Arc<AtomicBool>,
    join: JoinHandle<KeeperLog>,
}

impl Keeper {
    /// Starts probing and shipping `router` on the default cadence.
    #[must_use]
    pub fn start(router: &Arc<Router>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let join = {
            let router = Arc::clone(router);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("perfbench-keeper".into())
                .spawn(move || {
                    let mut log = KeeperLog::default();
                    let (mut until_probe, mut until_ship) = (PROBE_EVERY, SHIP_EVERY);
                    while !stop.load(Ordering::Acquire) {
                        std::thread::sleep(KEEPER_TICK);
                        until_probe = until_probe.saturating_sub(KEEPER_TICK);
                        until_ship = until_ship.saturating_sub(KEEPER_TICK);
                        if until_probe.is_zero() {
                            until_probe = PROBE_EVERY;
                            let t0 = Instant::now();
                            let probes = router.probe_now();
                            log.probe_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            log.errors += probes.iter().filter(|p| p.is_err()).count() as u64;
                        }
                        if until_ship.is_zero() {
                            until_ship = SHIP_EVERY;
                            let t0 = Instant::now();
                            let ships = router.ship_now();
                            log.ship_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                            log.errors += ships.iter().filter(|s| s.is_err()).count() as u64;
                        }
                    }
                    log
                })
                .expect("spawn keeper thread")
        };
        Self { stop, join }
    }

    /// Stops the keeper and returns what it measured.
    #[must_use]
    pub fn stop(self) -> KeeperLog {
        self.stop.store(true, Ordering::Release);
        self.join.join().expect("keeper thread panicked")
    }
}

/// One node and one client connection to it.
#[derive(Debug)]
pub struct DirectPath {
    node: LocalNode,
    client: TcpClient,
}

/// Two nodes, the router over them, and its keeper.
pub struct FleetPath {
    nodes: Vec<LocalNode>,
    router: Arc<Router>,
    registry: Arc<Registry>,
    keeper: Keeper,
}

/// A started request path.
pub enum Started {
    /// See [`DirectPath`].
    Direct(DirectPath),
    /// See [`FleetPath`].
    Fleet(FleetPath),
}

/// A path torn down, with what its nodes and keeper reported.
#[derive(Debug, Default)]
pub struct Stopped {
    /// Sum of the nodes' `service.served` counters.
    pub served: u64,
    /// Sum of the nodes' `service.shed` counters.
    pub shed: u64,
    /// The keeper's log (fleet only).
    pub keeper: KeeperLog,
    /// Router accounting `(balances, answered, shed, failover, other)`
    /// (fleet only).
    pub accounting: Option<(bool, u64, u64, u64, u64)>,
}

fn node_counter(node: &LocalNode, name: &str) -> u64 {
    node.registry().counter(name).unwrap_or(0)
}

impl Started {
    /// Starts `path` and connects to it.
    ///
    /// # Panics
    ///
    /// When a loopback port cannot be bound or connected: the benchmark
    /// cannot run without one.
    #[must_use]
    pub fn start(path: Path) -> Self {
        match path {
            Path::Direct => {
                let node = LocalNode::start(ServiceConfig::default()).expect("start node");
                let client = TcpClient::connect(node.addr()).expect("connect to node");
                Started::Direct(DirectPath { node, client })
            }
            Path::Fleet => {
                let nodes: Vec<LocalNode> = (0..2)
                    .map(|_| LocalNode::start(ServiceConfig::default()).expect("start node"))
                    .collect();
                let addrs: Vec<_> = nodes.iter().map(LocalNode::addr).collect();
                let registry = Arc::new(Registry::new());
                let config = RouterConfig {
                    obs: registry.obs(),
                    ..RouterConfig::default()
                };
                let router = Arc::new(Router::new(&addrs, config).expect("two-node fleet"));
                // A node's accept loop polls every 50 ms. Whether a probe
                // waits for that poll depends on whether the node thread
                // reached its first accept before the connect, a race
                // the scheduler decides; on one CPU it made set-up read
                // 55 ms in some runs and 105 ms in others. Yielding the
                // CPU first lets both node threads reach the loop, so
                // every set-up waits for one poll per node (the probes
                // go out one after the other).
                std::thread::sleep(SETTLE);
                // One probe opens both node links.
                for probe in router.probe_now() {
                    probe.expect("fresh node answers its first probe");
                }
                let keeper = Keeper::start(&router);
                Started::Fleet(FleetPath {
                    nodes,
                    router,
                    registry,
                    keeper,
                })
            }
        }
    }

    /// Sends one request and waits for its reply.
    ///
    /// # Errors
    ///
    /// The structured failure, rendered.
    pub fn call(&mut self, request: Request) -> Result<Response, String> {
        match self {
            Started::Direct(d) => match d.client.serve(request, None) {
                Ok(WireResponse::Response(r)) => Ok(r),
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(e.to_string()),
            },
            Started::Fleet(f) => f.router.call(request, None).map_err(|e| e.to_string()),
        }
    }

    /// Which node `ip` routes to (always 0 on the direct path).
    #[must_use]
    pub fn node_for_ip(&self, ip: u64) -> usize {
        match self {
            Started::Direct(_) => 0,
            Started::Fleet(f) => f.router.node_for_ip(ip).0,
        }
    }

    /// The router-side registry's counter `name` (fleet only).
    #[must_use]
    pub fn router_counter(&self, name: &str) -> u64 {
        match self {
            Started::Direct(_) => 0,
            Started::Fleet(f) => f.registry.counter(name).unwrap_or(0),
        }
    }

    /// Stops the keeper, then every node, and reports their counters.
    #[must_use]
    pub fn stop(self) -> Stopped {
        let mut out = Stopped::default();
        let nodes = match self {
            Started::Direct(d) => {
                drop(d.client);
                vec![d.node]
            }
            Started::Fleet(f) => {
                out.keeper = f.keeper.stop();
                let a = f.router.accounting();
                out.accounting = Some((
                    a.balances(),
                    a.answered,
                    a.shed,
                    a.failover_attributed,
                    a.other_error,
                ));
                drop(f.router);
                f.nodes
            }
        };
        for node in nodes {
            out.served += node_counter(&node, cap_service::names::SERVED);
            out.shed += node_counter(&node, cap_service::names::SHED);
            // A node that cannot be told to stop is still joined; its
            // counters were read above.
            let _ = node.stop(DRAIN);
        }
        out
    }
}

/// A reply reduced to the fields a replay compares.
#[must_use]
pub fn fingerprint(r: &Response) -> u64 {
    let mut h = Fnv::default();
    match *r {
        Response::Observed {
            addr,
            speculate,
            correct,
            rung,
        } => {
            h.u64(addr.unwrap_or(u64::MAX));
            h.u64(u64::from(speculate) | u64::from(correct) << 1 | (rung.index() as u64) << 2);
        }
        Response::Predicted {
            addr,
            speculate,
            rung,
        } => {
            h.u64(addr.unwrap_or(u64::MAX));
            h.u64(u64::from(speculate) | 1 << 8 | (rung.index() as u64) << 2);
        }
    }
    h.finish()
}

/// Reply fingerprints folded into one digest per [`REPLY_BLOCK`]
/// replies. A run keeps no per-reply record, so the benchmark's own
/// memory grows by 4 bytes a request (the round trip), not by 12, and
/// `peak_rss_mb` follows throughput that much less.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replies {
    blocks: Vec<u64>,
    open: Fnv,
    count: usize,
}

impl Replies {
    /// Folds in the next reply's fingerprint.
    pub fn push(&mut self, print: u64) {
        self.open.u64(print);
        self.count += 1;
        if self.count.is_multiple_of(REPLY_BLOCK) {
            self.blocks.push(self.open.finish());
            self.open = Fnv::default();
        }
    }

    /// Replies folded in.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Replies that cannot be shown equal to `other`'s: every reply of a
    /// block whose digest differs, and every reply only one side has.
    #[must_use]
    pub fn mismatched(&self, other: &Self) -> u64 {
        let common = self.count.min(other.count);
        let digest = |r: &Self, b: usize| r.blocks.get(b).copied().unwrap_or(r.open.finish());
        let differing: usize = (0..common.div_ceil(REPLY_BLOCK))
            .filter(|&b| digest(self, b) != digest(other, b))
            .map(|b| REPLY_BLOCK.min(common - b * REPLY_BLOCK))
            .sum();
        (differing + self.count.max(other.count) - common) as u64
    }
}

/// What a closed-loop replay saw.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Per-request round trips, µs (empty when not timed per request).
    pub rtt_us: Vec<f32>,
    /// Reply fingerprints (0 for a failed request).
    pub replies: Replies,
    /// Failed requests.
    pub errors: u64,
    /// First failure, rendered.
    pub first_error: Option<String>,
    /// Replies in the first pass over the stream that speculated.
    pub speculated: u64,
    /// Replies in the first pass over the stream that predicted correctly.
    pub correct: u64,
    /// Wall time of the whole loop, s.
    pub elapsed: f64,
}

impl Replayed {
    /// The round trips, µs, widened for the summaries.
    #[must_use]
    pub fn rtts(&self) -> Vec<f64> {
        self.rtt_us.iter().map(|&us| f64::from(us)).collect()
    }
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Until this much time has passed and at least one whole pass over
    /// the stream is done.
    Time(Duration),
    /// For exactly this many requests.
    Count(usize),
}

/// Replays `stream` (cycling) one request at a time through `call`.
/// With `per_request`, every round trip is timed; without, only the
/// whole loop is.
pub fn closed_loop(
    stream: &[Request],
    limit: Limit,
    per_request: bool,
    mut call: impl FnMut(Request) -> Result<Response, String>,
) -> Replayed {
    // Reserved once, so the buffer never reallocates: a reallocation
    // holds both copies at once and would put a step that depends on
    // speed into `peak_rss_mb`. Untouched pages of the reservation are
    // not resident.
    let reserve = match limit {
        Limit::Time(_) => RESERVE,
        Limit::Count(n) => n,
    };
    let mut out = Replayed {
        rtt_us: Vec::with_capacity(if per_request { reserve } else { 0 }),
        ..Replayed::default()
    };
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        match limit {
            Limit::Time(d) if i >= stream.len() && start.elapsed() >= d => break,
            Limit::Count(n) if i >= n => break,
            _ => {}
        }
        let request = stream[i % stream.len()];
        let reply = if per_request {
            let t0 = Instant::now();
            let reply = call(black_box(request));
            out.rtt_us.push((t0.elapsed().as_secs_f64() * 1e6) as f32);
            reply
        } else {
            call(black_box(request))
        };
        match reply {
            Ok(r) => {
                if let Response::Observed {
                    speculate, correct, ..
                } = r
                {
                    if i < stream.len() {
                        out.speculated += u64::from(speculate);
                        out.correct += u64::from(correct);
                    }
                }
                out.replies.push(fingerprint(&r));
            }
            Err(e) => {
                out.errors += 1;
                out.first_error.get_or_insert(e);
                out.replies.push(0);
            }
        }
        i += 1;
    }
    out.elapsed = start.elapsed().as_secs_f64();
    out
}

/// Replays the first `n` requests of `stream` (cycling) through fresh
/// in-process services, one per node, each request going to the node
/// `node_of` names for its stream position; returns the reply
/// fingerprints.
pub fn reference_replay(
    stream: &[Request],
    n: usize,
    nodes: usize,
    node_of: impl Fn(usize) -> usize,
) -> Replies {
    let services: Vec<(Service, Arc<Registry>)> = (0..nodes)
        .map(|_| {
            let (config, registry) = served_config();
            (Service::start(config), registry)
        })
        .collect();
    let handles: Vec<_> = services.iter().map(|(s, _)| s.handle()).collect();
    let mut out = Replies::default();
    for i in 0..n {
        let pos = i % stream.len();
        out.push(match handles[node_of(pos)].call(stream[pos], None) {
            Ok(r) => fingerprint(&r),
            Err(_) => 0,
        });
    }
    drop(handles);
    for (service, _) in services {
        let _ = service.shutdown(DRAIN);
    }
    out
}

/// Generates the replay traces and their request stream.
#[must_use]
pub fn inputs(seed: u64) -> (Vec<Trace>, Vec<Request>) {
    let traces = generate(&one_per_suite(seed), LOADS_PER_TRACE);
    let stream = observe_stream(&traces);
    (traces, stream)
}

/// Runs `replay-direct` or `replay-fleet`.
#[must_use]
pub fn run(args: &RunArgs, path: Path) -> Outcome {
    let mut out = Outcome::default();
    let name = match path {
        Path::Direct => "replay-direct",
        Path::Fleet => "replay-fleet",
    };
    if args.trace {
        let ((traces, _stream), setup_s) = repeat_setup(|| inputs(args.seed), drop);
        out.say(format!("{name}: traced run, seed {}", args.seed));
        crate::layers::measure(&traces, setup_s, path, &mut out);
        return out;
    }
    let ((stream, mut started), setup_s) = repeat_setup(
        || {
            let (_traces, stream) = inputs(args.seed);
            (stream, Started::start(path))
        },
        |(_, started)| drop(started.stop()),
    );
    out.say(format!(
        "{name}: {} requests in the stream (digest {:016x}), closed loop, 1 client, seed {}",
        stream.len(),
        stream_digest(&stream),
        args.seed
    ));

    let replayed = closed_loop(&stream, Limit::Time(args.seconds), true, |r| {
        started.call(r)
    });
    let peak = peak_rss_mib();
    let sent = replayed.replies.count() as u64;
    let node_of: Vec<usize> = match path {
        // Resolve routing before the fleet stops; the ring is fixed.
        Path::Fleet => stream
            .iter()
            .map(|r| match *r {
                Request::Observe { ip, .. } | Request::Predict { ip, .. } => {
                    started.node_for_ip(ip)
                }
            })
            .collect(),
        Path::Direct => Vec::new(),
    };
    let stopped = started.stop();
    out.attempted = sent;
    out.fail(
        replayed.errors,
        format!("requests failed (first: {:?})", replayed.first_error),
    );

    // Every reply must equal an in-process replay of the same requests.
    let reference = match path {
        Path::Direct => reference_replay(&stream, sent as usize, 1, |_| 0),
        Path::Fleet => reference_replay(&stream, sent as usize, 2, |pos| node_of[pos]),
    };
    let mismatched = reference.mismatched(&replayed.replies);
    out.fail(
        mismatched,
        "replies differ from the in-process ServiceHandle replay",
    );
    if stopped.served != sent || stopped.shed != 0 {
        out.fail(
            1,
            format!(
                "nodes served {} of {sent} sent, shed {}",
                stopped.served, stopped.shed
            ),
        );
    }
    if let Some((balances, answered, shed, failover, other)) = stopped.accounting {
        if !balances || answered != sent {
            out.fail(
                1,
                format!(
                    "router accounting: balances={balances}, answered {answered} of {sent} \
                     (shed {shed}, failover {failover}, other {other})"
                ),
            );
        }
    }

    let mut rtt_us = replayed.rtts();
    let sliced = Sliced::of(&rtt_us, SLICES);
    let rtt = Summary::of(&mut rtt_us);
    // One client in a closed loop answers one request per round trip.
    // Both timings come from the least disturbed stretch of the run: the
    // round trip is thread hand-offs on a shared host, and another
    // tenant's spell of seconds can slow most of a run.
    let loads_per_s = 1e6 / sliced.best_mean;
    let wall_loads_per_s = sent as f64 / replayed.elapsed;
    let rate = replayed.speculated as f64 / stream.len() as f64 * 100.0;
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("peak_rss_mb", peak, "MiB");
    out.metrics.put("loads_per_s", loads_per_s, "loads/s");
    out.metrics.put("op_p50_us", sliced.best_p50, "us");
    out.metrics.put("hybrid_rate_pct", rate, "%");

    let setup_what = match path {
        Path::Direct => "trace generation, node start, connect",
        Path::Fleet => "trace generation, two node starts, router start, link connects",
    };
    out.say(format!("  setup_s            {setup_s:>14.4} s        (median of {SETUP_REPS} set-ups: {setup_what})"));
    out.say(format!("  peak_rss_mb        {peak:>14.1} MiB"));
    out.say(format!(
        "  replay_p50_us      {:>14.2} us       lowest of {} slices of {} round trips; median slice {:.2} us, whole run {:.2} us  [json: op_p50_us]",
        sliced.best_p50,
        sliced.slices,
        sliced.n / sliced.slices,
        sliced.p50,
        rtt.p50
    ));
    out.say(format!(
        "  replay_p99_us      {:>14.2} us       median over {} slices; whole run {:.2} us, n={}  (not gated; the traced run reports replay.p99_us)",
        sliced.p99, sliced.slices, rtt.p99, rtt.n
    ));
    out.say(format!(
        "  replay tail        {:>14.2} us       p{} of the whole run (highest percentile with >=10 samples beyond), n={}",
        rtt.tail, rtt.tail_pct, rtt.n
    ));
    out.say(format!(
        "  replay_loads_per_s {loads_per_s:>14.0} loads/s  (1 / lowest slice mean round trip; {sent} answered in {:.2} s = {wall_loads_per_s:.0}/s)  [json: loads_per_s]",
        replayed.elapsed
    ));
    out.say(format!(
        "  hybrid_rate_pct    {rate:>14.2} %        served prediction rate over the first pass; {} of {} correct (reference agrees: {})",
        replayed.correct,
        stream.len(),
        mismatched == 0
    ));
    if path == Path::Fleet {
        let k = &stopped.keeper;
        out.say(format!(
            "  keeper             {} ships, {} probes, {} errors",
            k.ship_ms.len(),
            k.probe_us.len(),
            k.errors
        ));
    }
    out.say(format!(
        "  error_ratio        {:>14.6}          ({} failed of {sent})",
        out.failed as f64 / sent.max(1) as f64,
        out.failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replies(prints: impl IntoIterator<Item = u64>) -> Replies {
        let mut r = Replies::default();
        for p in prints {
            r.push(p);
        }
        r
    }

    #[test]
    fn a_differing_reply_fails_its_whole_block() {
        let n = 2 * REPLY_BLOCK + 10;
        let good = replies(0..n as u64);
        assert_eq!(good.count(), n);
        assert_eq!(good.mismatched(&good.clone()), 0);
        // One reply off in the first full block, one in the partial tail.
        let early = replies((0..n as u64).map(|i| if i == 5 { 99_999 } else { i }));
        assert_eq!(good.mismatched(&early), REPLY_BLOCK as u64);
        let late = replies((0..n as u64).map(|i| if i == n as u64 - 1 { 99_999 } else { i }));
        assert_eq!(good.mismatched(&late), 10);
        // Replies only one side has count too, and the shorter side's
        // open block cannot be shown equal to the longer side's.
        let short = replies(0..(n - 3) as u64);
        assert_eq!(good.mismatched(&short), 7 + 3);
    }
}
