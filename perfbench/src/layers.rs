//! The traced run: per-layer metrics, timed from outside the program
//! around each layer's public entry points, on the workload's own inputs.
//!
//! Every traced run measures every layer, so every workload reports the
//! same per-layer metric set; which layer a workload actually exercises
//! in its end-to-end run is recorded in `README.md`. The online ladder
//! replays the workload's request stream one layer at a time, each step
//! on fresh state built the same way:
//!
//! 1. the registry-built primary and fallback backends, called directly;
//! 2. `ServiceHandle::call` on an in-process service;
//! 3. the wire codec (`WireRequest` + `WireResponse`, encode and decode);
//! 4. `TcpClient::serve` to a `LocalNode`;
//! 5. `Router::call` over two `LocalNode`s with the keeper running.
//!
//! A layer's self time is the mean of its step minus the mean of the
//! step inside it. Each online path is also replayed once untraced
//! (only the whole loop is timed); the gap between that and the
//! outermost traced step is the tracing overhead.

use crate::common::{Outcome, WorkDir};
use crate::durable;
use crate::inputs::observe_stream;
use crate::replay::{closed_loop, served_config, Limit, Path, Replayed, Replies, Started};
use crate::stats::{median, Summary};
use crate::sweep::{self, configs, geomean_speedup, CONFIGS};
use cap_faults::fs::RealVfs;
use cap_harness::checkpoint::{list_checkpoints, write_checkpoint_with};
use cap_harness::runner::PredictorFactory;
use cap_harness::supervisor::run as supervise;
use cap_obs::Obs;
use cap_predictor::types::LoadContext;
use cap_service::service::{Request, Response, Service, ServiceConfig};
use cap_service::wire::{WireRequest, WireResponse};
use cap_snapshot::journal::encode_journal_record;
use cap_trace::io::{event_line, read_trace, write_trace};
use cap_trace::Trace;
use cap_uarch::core::CoreConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests each online ladder step replays.
pub const ONLINE_REQUESTS: usize = 40_000;

/// Loads timed for the predict/update split (after one warm-up pass).
const SPLIT_LOADS: usize = 200_000;

/// Calls per timed block where one call costs about as much as the timer.
const BLOCK: usize = 16;

/// Times `live_snapshot` and checkpoint writes this many times.
const REPEATS: usize = 7;

fn ctx_of(r: &Request) -> (LoadContext, u64) {
    match *r {
        Request::Observe {
            ip,
            offset,
            ghr,
            actual,
        } => (LoadContext::new(ip, offset, ghr), actual),
        Request::Predict { ip, offset, ghr } => (LoadContext::new(ip, offset, ghr), 0),
    }
}

/// Times `f` over `items` in blocks of [`BLOCK`], returning per-item ns
/// for every block.
fn blocks<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .chunks(BLOCK)
        .map(|chunk| {
            let t0 = Instant::now();
            for item in chunk {
                f(item);
            }
            t0.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-event parse cost of the trace text format.
fn parse_ns_per_event(traces: &[Trace]) -> f64 {
    let (mut ns, mut events) = (0.0, 0usize);
    for trace in traces {
        let mut bytes = Vec::new();
        write_trace(&mut bytes, trace).expect("serializing to memory cannot fail");
        let t0 = Instant::now();
        let parsed = black_box(read_trace(black_box(bytes.as_slice())).expect("round trip parses"));
        ns += t0.elapsed().as_nanos() as f64;
        events += parsed.len();
    }
    ns / events as f64
}

/// Predict and update on the warm hybrid, timed in alternating blocks:
/// [`BLOCK`] predictions, then their [`BLOCK`] updates.
fn predict_update_split(stream: &[Request]) -> (f64, f64) {
    let mut p = PredictorFactory::hybrid().build();
    for r in stream {
        let (ctx, actual) = ctx_of(r);
        let pred = p.predict(&ctx);
        p.update(&ctx, actual, &pred);
    }
    let timed = &stream[..stream.len().min(SPLIT_LOADS)];
    let (mut predict_ns, mut update_ns) = (0u128, 0u128);
    let mut preds = Vec::with_capacity(BLOCK);
    for chunk in timed.chunks(BLOCK) {
        preds.clear();
        let t0 = Instant::now();
        for r in chunk {
            preds.push(p.predict(&ctx_of(r).0));
        }
        let t1 = Instant::now();
        for (r, pred) in chunk.iter().zip(&preds) {
            let (ctx, actual) = ctx_of(r);
            p.update(&ctx, actual, pred);
        }
        update_ns += t1.elapsed().as_nanos();
        predict_ns += (t1 - t0).as_nanos();
    }
    let n = timed.len() as f64;
    (predict_ns as f64 / n, update_ns as f64 / n)
}

/// The worker's backend work for one `Observe` on the hybrid rung:
/// primary predict + update, then the fallback's shadow training.
fn backend_step(stream: &[Request]) -> Summary {
    let config = ServiceConfig::default();
    let mut primary = config.primary.build();
    let mut fallback = config.fallback.build();
    let mut per_req = blocks(stream, |r| {
        let (ctx, actual) = ctx_of(r);
        let pred = primary.predict(&ctx);
        primary.update(&ctx, actual, &pred);
        let shadow = fallback.predict(&ctx);
        fallback.update(&ctx, actual, &shadow);
        black_box(pred);
    });
    Summary::of(&mut per_req)
}

/// `ServiceHandle::call` on an in-process service, then `snapshot_live`
/// on the warm service. Returns per-call µs, the replies, and the
/// snapshot times (ms) and size.
fn service_step(stream: &[Request]) -> (Summary, Vec<Response>, Summary, usize) {
    let (config, _registry) = served_config();
    let service = Service::start(config);
    let handle = service.handle();
    let mut call_us = Vec::with_capacity(stream.len());
    let mut replies = Vec::with_capacity(stream.len());
    for &r in stream {
        let t0 = Instant::now();
        let reply = handle.call(black_box(r), None);
        call_us.push(t0.elapsed().as_secs_f64() * 1e6);
        replies.push(reply.expect("in-process service answers"));
    }
    let mut live_ms = Vec::with_capacity(REPEATS);
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let archive = handle.snapshot_live().expect("live snapshot");
        live_ms.push(ms(t0.elapsed()));
        bytes = archive.len();
    }
    drop(handle);
    let _ = service.shutdown(Duration::from_millis(500));
    (
        Summary::of(&mut call_us),
        replies,
        Summary::of(&mut live_ms),
        bytes,
    )
}

/// Encode + decode of one request frame and its reply frame.
fn codec_step(stream: &[Request], replies: &[Response]) -> Summary {
    let pairs: Vec<(Request, Response)> = stream
        .iter()
        .copied()
        .zip(replies.iter().cloned())
        .collect();
    let mut per_req = blocks(&pairs, |(request, response)| {
        let req = WireRequest::Serve {
            request: *request,
            budget: None,
            epoch: None,
        }
        .encode();
        black_box(WireRequest::decode(black_box(&req)).expect("request round trip"));
        let resp = WireResponse::Response(response.clone()).encode();
        black_box(WireResponse::decode(black_box(&resp)).expect("reply round trip"));
    });
    Summary::of(&mut per_req)
}

/// An untraced and a traced replay of `stream` over fresh `path`s.
struct OnlineStep {
    untraced: Replayed,
    traced: Replayed,
    stopped: crate::replay::Stopped,
    ship_bytes: u64,
    ships: u64,
}

fn online_step(stream: &[Request], path: Path) -> OnlineStep {
    let limit = Limit::Count(stream.len());
    let mut s = Started::start(path);
    let untraced = closed_loop(stream, limit, false, |r| s.call(r));
    drop(s.stop());
    let mut s = Started::start(path);
    let traced = closed_loop(stream, limit, true, |r| s.call(r));
    let ship_bytes = s.router_counter(cap_cluster::names::SHIP_BYTES);
    let ships = s.router_counter(cap_cluster::names::SHIP_COUNT);
    let stopped = s.stop();
    OnlineStep {
        untraced,
        traced,
        stopped,
        ship_bytes,
        ships,
    }
}

/// One row of a budget table: a layer and its self time.
struct Row {
    layer: &'static str,
    mean_ns: f64,
    p50_ns: f64,
}

/// Prints a budget table and returns the residual share (percent).
fn budget(out: &mut Outcome, title: &str, rows: &[Row], untraced_ns: f64, samples: usize) -> f64 {
    let sum: f64 = rows.iter().map(|r| r.mean_ns).sum();
    let residual = (untraced_ns - sum) / untraced_ns * 100.0;
    out.say(format!("  budget: {title} ({samples} requests per step)"));
    out.say(format!(
        "    {:<44} {:>12} {:>12} {:>8}",
        "layer (self time)", "mean ns", "p50 ns", "share"
    ));
    for r in rows {
        out.say(format!(
            "    {:<44} {:>12.0} {:>12.0} {:>7.1}%",
            r.layer,
            r.mean_ns,
            r.p50_ns,
            r.mean_ns / untraced_ns * 100.0
        ));
    }
    out.say(format!(
        "    {:<44} {:>12.0}",
        "sum of self times (outermost traced step)", sum
    ));
    out.say(format!(
        "    {:<44} {:>12.0}",
        "untraced end-to-end mean", untraced_ns
    ));
    out.say(format!(
        "    {:<44} {:>12.0} {:>12} {:>7.1}%",
        "residual (end-to-end minus sum)",
        untraced_ns - sum,
        "",
        residual
    ));
    out.say(format!(
        "    tracing overhead (outermost traced minus untraced): {:.0} ns ({:+.1}%)",
        sum - untraced_ns,
        (sum - untraced_ns) / untraced_ns * 100.0
    ));
    if residual.abs() > 15.0 {
        out.say(format!(
            "    UNEXPLAINED: {residual:.1}% of the end-to-end mean is not covered by the traced steps"
        ));
    }
    residual
}

/// The traced run over a workload's `traces`, which took `generate_s` to
/// generate. `own` is the request path whose round trips give
/// `budget.residual_pct` and the `replay.*` metrics; the batch workloads
/// pass the direct path.
pub fn measure(traces: &[Trace], generate_s: f64, own: Path, out: &mut Outcome) {
    let m = &mut Vec::new();
    let mut put = |name: String, value: f64, unit: &'static str| m.push((name, value, unit));

    // cap-trace: generation (timed by the caller) and parsing.
    let specs_events: usize = traces.iter().map(Trace::len).sum();
    put("trace.traces".into(), traces.len() as f64, "count");
    put("trace.events".into(), specs_events as f64, "count");
    put("trace.generate_ms".into(), generate_s * 1e3, "ms");
    put(
        "trace.parse_ns_per_event".into(),
        parse_ns_per_event(traces),
        "ns",
    );

    // cap-predictor: predict/update split on the warm hybrid.
    let stream = observe_stream(traces);
    let (predict_ns, update_ns) = predict_update_split(&stream);
    put("predictor.predict_ns".into(), predict_ns, "ns");
    put("predictor.update_ns".into(), update_ns, "ns");

    // drive::Session and the timing core, one figure pass per trace.
    let configs = configs();
    let core = CoreConfig::paper_default();
    let mut sims = Vec::with_capacity(traces.len());
    let mut session_s = [0.0; 4];
    let (mut base_s, mut hybrid_s) = (0.0, 0.0);
    for trace in traces {
        let (sim, host) = sweep::pass(trace, &configs, &core);
        for (acc, s) in session_s.iter_mut().zip(host.session) {
            *acc += s;
        }
        base_s += host.base;
        hybrid_s += host.hybrid;
        sims.push(sim);
    }
    for (c, name) in CONFIGS.iter().enumerate() {
        let loads: u64 = sims.iter().map(|s| s.stats[c].loads).sum();
        let spec: u64 = sims.iter().map(|s| s.stats[c].spec_accesses).sum();
        let correct: u64 = sims.iter().map(|s| s.stats[c].correct_spec).sum();
        put(format!("predictor.loads.{name}"), loads as f64, "count");
        put(
            format!("predictor.predictions.{name}"),
            spec as f64,
            "count",
        );
        put(format!("predictor.correct.{name}"), correct as f64, "count");
        put(
            format!("session.ns_per_load.{name}"),
            session_s[c] * 1e9 / loads as f64,
            "ns",
        );
    }
    let base_insts: u64 = sims.iter().map(|s| s.base.instructions).sum();
    let hybrid_insts: u64 = sims.iter().map(|s| s.hybrid.instructions).sum();
    put(
        "uarch.ns_per_inst.base".into(),
        base_s * 1e9 / base_insts as f64,
        "ns",
    );
    put(
        "uarch.ns_per_inst.hybrid".into(),
        hybrid_s * 1e9 / hybrid_insts as f64,
        "ns",
    );
    put(
        "uarch.cycles.base".into(),
        sims.iter().map(|s| s.base.cycles).sum::<u64>() as f64,
        "cycles",
    );
    put(
        "uarch.cycles.hybrid".into(),
        sims.iter().map(|s| s.hybrid.cycles).sum::<u64>() as f64,
        "cycles",
    );
    let weighted_l1: f64 = sims
        .iter()
        .map(|s| f64::from_bits(s.base.l1_hit_bits) * s.base.instructions as f64)
        .sum();
    put(
        "uarch.l1_hit_rate".into(),
        weighted_l1 / base_insts as f64,
        "ratio",
    );
    put("uarch.hybrid_speedup".into(), geomean_speedup(&sims), "x");

    // cap-snapshot::journal: one framed record per trace event.
    let t0 = Instant::now();
    for trace in traces {
        for event in trace.events() {
            black_box(encode_journal_record(event_line(event).as_bytes()));
        }
    }
    put(
        "snapshot.journal_append_ns".into(),
        t0.elapsed().as_nanos() as f64 / specs_events as f64,
        "ns",
    );

    // cap-harness: plain supervised run and checkpoint publication.
    let work = WorkDir::new("layers").expect("create the work directory");
    let trace_path = work.path().join("trace.txt");
    durable::write_trace_file(&traces[0], &trace_path);
    let plain: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let o = supervise(&durable::config(&trace_path, None)).expect("plain supervised run");
            o.stats.loads as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    put(
        "harness.plain_loads_per_s".into(),
        median(&plain),
        "loads/s",
    );
    let ckpt_dir = work.path().join("durable");
    let t0 = Instant::now();
    let durable_run = supervise(&durable::config(&trace_path, Some(ckpt_dir.clone())))
        .expect("durable supervised run");
    let durable_lps = durable_run.stats.loads as f64 / t0.elapsed().as_secs_f64();
    let newest = list_checkpoints(&ckpt_dir)
        .ok()
        .and_then(|list| list.last().map(|(_, p)| p.clone()));
    let ckpt_bytes =
        std::fs::read(newest.expect("every workload trace spans a checkpoint interval"))
            .expect("read the newest checkpoint");
    let publish = work.path().join("publish");
    let mut write_ms: Vec<f64> = (0..REPEATS as u64)
        .map(|seq| {
            let t0 = Instant::now();
            write_checkpoint_with(&RealVfs, &publish, seq + 1, &ckpt_bytes, &Obs::off())
                .expect("publish checkpoint");
            ms(t0.elapsed())
        })
        .collect();
    put(
        "harness.checkpoint_write_ms".into(),
        Summary::of(&mut write_ms).p50,
        "ms",
    );
    drop(work);

    // The online ladder.
    let online = &stream[..stream.len().min(ONLINE_REQUESTS)];
    let backend = backend_step(online);
    let (call, replies, live, archive_bytes) = service_step(online);
    let codec = codec_step(online, &replies);
    let direct = online_step(online, Path::Direct);
    let fleet = online_step(online, Path::Fleet);

    let mut rtt_samples = direct.traced.rtts();
    let rtt = Summary::of(&mut rtt_samples);
    let mut route_samples = fleet.traced.rtts();
    let route = Summary::of(&mut route_samples);
    let keeper = &fleet.stopped.keeper;
    let mut ship_ms = keeper.ship_ms.clone();
    let ship = Summary::of(&mut ship_ms);
    let mut probe_us = keeper.probe_us.clone();
    let probe = Summary::of(&mut probe_us);
    let (_, _, cl_shed, cl_failover, cl_other) = fleet.stopped.accounting.unwrap_or_default();

    put("service.backend_observe_ns".into(), backend.mean, "ns");
    put("service.call_us".into(), call.mean, "us");
    put("service.call_p50_us".into(), call.p50, "us");
    put(
        "service.self_ns".into(),
        call.mean * 1e3 - backend.mean,
        "ns",
    );
    put("wire.codec_ns".into(), codec.mean, "ns");
    put("net.rtt_us".into(), rtt.mean, "us");
    put("net.rtt_p50_us".into(), rtt.p50, "us");
    put(
        "net.self_us".into(),
        rtt.mean - call.mean - codec.mean / 1e3,
        "us",
    );
    put("cluster.route_us".into(), route.mean, "us");
    put("cluster.route_p50_us".into(), route.p50, "us");
    put("cluster.hop_us".into(), route.mean - rtt.mean, "us");
    put("cluster.ship_ms".into(), ship.p50, "ms");
    put(
        "cluster.ship_max_ms".into(),
        ship_ms.last().copied().unwrap_or(f64::NAN),
        "ms",
    );
    put(
        "cluster.ship_bytes".into(),
        fleet.ship_bytes as f64 / fleet.ships.max(1) as f64,
        "bytes",
    );
    put("cluster.ships".into(), fleet.ships as f64, "count");
    put("cluster.probe_us".into(), probe.p50, "us");
    put("snapshot.live_ms".into(), live.p50, "ms");
    put(
        "snapshot.archive_bytes".into(),
        archive_bytes as f64,
        "bytes",
    );
    put(
        "service.shed".into(),
        (direct.stopped.shed + fleet.stopped.shed) as f64,
        "count",
    );
    put("cluster.shed".into(), cl_shed as f64, "count");
    put("cluster.failover".into(), cl_failover as f64, "count");
    put("cluster.other_error".into(), cl_other as f64, "count");

    // Budget tables: self times telescope from the backend out (step
    // means in ns; `call`, `rtt` and `route` were timed in µs).
    let mut rows = vec![
        Row {
            layer: "backend (primary predict+update, stride shadow)",
            mean_ns: backend.mean,
            p50_ns: backend.p50,
        },
        Row {
            layer: "service (admission, worker channel hop, reply)",
            mean_ns: call.mean * 1e3 - backend.mean,
            p50_ns: call.p50 * 1e3 - backend.p50,
        },
        Row {
            layer: "wire codec (request + reply, encode + decode)",
            mean_ns: codec.mean,
            p50_ns: codec.p50,
        },
        Row {
            layer: "net (loopback TCP, framing, server threads)",
            mean_ns: (rtt.mean - call.mean) * 1e3 - codec.mean,
            p50_ns: (rtt.p50 - call.p50) * 1e3 - codec.p50,
        },
    ];
    let n = online.len();
    let untraced_ns = |r: &Replayed| r.elapsed * 1e9 / r.replies.count() as f64;
    let direct_residual = budget(
        out,
        "direct path (TcpClient::serve to one node)",
        &rows,
        untraced_ns(&direct.untraced),
        n,
    );
    rows.push(Row {
        layer: "router hop (ring, breaker, epoch, NodeLink)",
        mean_ns: (route.mean - rtt.mean) * 1e3,
        p50_ns: (route.p50 - rtt.p50) * 1e3,
    });
    let fleet_residual = budget(
        out,
        "fleet path (Router::call over two nodes)",
        &rows,
        untraced_ns(&fleet.untraced),
        n,
    );
    let (outer, residual) = match own {
        Path::Direct => (&rtt_samples, direct_residual),
        Path::Fleet => (&route_samples, fleet_residual),
    };
    put("budget.residual_pct".into(), residual, "%");
    let mut outer = outer.clone();
    let tail = Summary::of(&mut outer);
    put("replay.p99_us".into(), tail.p99, "us");
    put("replay.tail_us".into(), tail.tail, "us");
    put("replay.samples".into(), tail.n as f64, "count");

    // Cross-checks: the same stream must get the same replies on every
    // path built the same way.
    let mut call_prints = Replies::default();
    for reply in &replies {
        call_prints.push(crate::replay::fingerprint(reply));
    }
    let mut failed = 0u64;
    let mut check = |what: &str, ok: bool, out: &mut Outcome| {
        if !ok {
            failed += 1;
            out.say(format!("CHECK FAILED: {what}"));
        }
    };
    check(
        "direct replies equal the in-process service's",
        direct.traced.replies == call_prints && direct.untraced.replies == call_prints,
        out,
    );
    check(
        "traced and untraced fleet replies agree",
        fleet.traced.replies == fleet.untraced.replies,
        out,
    );
    check(
        "no request failed",
        direct.traced.errors + direct.untraced.errors + fleet.traced.errors + fleet.untraced.errors
            == 0,
        out,
    );
    check(
        "fleet accounting balances",
        fleet
            .stopped
            .accounting
            .is_some_and(|(b, answered, ..)| b && answered == n as u64),
        out,
    );
    check(
        "durable supervised run equals the plain one",
        durable_run.stats.loads == traces[0].load_count() as u64,
        out,
    );
    out.attempted = 5 * n as u64;
    out.failed += failed;

    out.say(format!(
        "  traced run: {} events over {} traces; durable supervised run {:.0} loads/s vs plain {:.0}",
        specs_events,
        traces.len(),
        durable_lps,
        median(&plain)
    ));
    for (name, value, unit) in m.drain(..) {
        out.say(format!("  {name:<34} {value:>16.4} {unit}"));
        out.metrics.put(name, value, unit);
    }
}
