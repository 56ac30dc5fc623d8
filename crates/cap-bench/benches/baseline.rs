//! Bench: the tracked performance baseline.
//!
//! Unlike the figure benches, this target is a *gate input*: it prices
//! single-predict latency of the hybrid, one predict pass per
//! registered backend, the delta journal codec, per-rung service
//! request latency on the default hybrid backend, and the router-hop
//! overhead (the same node served directly vs through the cluster
//! front door) — and, when
//! `CAP_BENCH_BASELINE_OUT` names a file, writes them as
//! machine-readable JSON. `scripts/verify.sh bench` snapshots
//! that JSON as `BENCH_<git-short-sha>.json` and diffs it against the
//! previous baseline, failing the gate on a >10% single-predict
//! regression.
//!
//! The JSON schema (`cap-bench-baseline-v1`) is flat on purpose: a
//! handful of scalar fields a shell script can pull out with grep/sed,
//! no arrays that need a real parser.

use cap_bench::bench_kit::Criterion;
use cap_cluster::prelude::{LocalNode, Router, RouterConfig};
use cap_predictor::drive::ControlState;
use cap_predictor::hybrid::{HybridConfig, HybridPredictor};
use cap_predictor::types::{AddressPredictor, LoadContext};
use cap_service::prelude::*;
use cap_snapshot::{
    encode_journal_header, encode_journal_record, JournalReplay, SectionReader, SectionWriter,
};
use cap_trace::io::{event_line, parse_event_line};
use cap_trace::suites::catalog;
use cap_trace::TraceEvent;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Loads per timed iteration of the predictor-level benches.
const LOADS: usize = 4_000;

/// Requests per timed iteration of the service benches — enough for
/// stable percentiles, small enough that quick mode stays a smoke test.
const REQUESTS: usize = 5_000;

/// Repeats of the whole workload inside one timed sample. A single
/// 4k-load pass is ~100-200µs — short enough that a scheduler blip can
/// shift the minimum by tens of percent, which would flake the 10%
/// regression gate. Eight passes per sample keeps each timed region in
/// the low milliseconds.
const REPS: usize = 8;

/// Replays the first catalog trace into `(context, actual address)`
/// pairs under the immediate model — the same deterministic workload
/// for every contender.
fn workload() -> Vec<(LoadContext, u64)> {
    let trace = catalog()[0].generate(LOADS);
    let mut control = ControlState::default();
    let mut loads = Vec::with_capacity(LOADS);
    for event in trace.iter() {
        match event {
            TraceEvent::Load(load) => loads.push((
                LoadContext {
                    ip: load.ip,
                    offset: load.offset,
                    ghr: control.ghr,
                    path: control.path,
                    pending: 0,
                },
                load.addr,
            )),
            TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
            TraceEvent::Store(_) | TraceEvent::Op(_) => {}
        }
    }
    loads
}

/// Drives predict+update over the whole workload so the timed predicts
/// run against live, populated tables.
fn warm(p: &mut dyn AddressPredictor, loads: &[(LoadContext, u64)]) {
    for (ctx, addr) in loads {
        let pred = p.predict(ctx);
        p.update(ctx, *addr, &pred);
    }
}

/// Minimum observed cost of one operation, from a recorded bench id.
fn ns_per_op(c: &Criterion, id: &str, ops: usize) -> f64 {
    let result = c
        .results()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("bench {id} did not run"));
    result.min().as_nanos() as f64 / ops as f64
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Times scalar predict on the paper-default hybrid over warm tables.
/// The id keeps its `legacy` suffix so `single_predict_legacy_ns`
/// stays comparable with every earlier `BENCH_*.json`.
fn bench_predict(c: &mut Criterion, loads: &[(LoadContext, u64)]) {
    let ctxs: Vec<LoadContext> = loads.iter().map(|(ctx, _)| *ctx).collect();
    let mut group = c.benchmark_group("baseline");
    group.sample_size(20);

    let mut hybrid = HybridPredictor::new(HybridConfig::paper_default());
    warm(&mut hybrid, loads);
    group.bench_function("single_predict_legacy", |b| {
        b.iter(|| {
            for _ in 0..REPS {
                for ctx in &ctxs {
                    black_box(hybrid.predict(ctx));
                }
            }
        });
    });

    group.finish();
}

/// Passes per timed sample of the per-backend catalog bench — smaller
/// than [`REPS`] because every backend shares the group and only a
/// coarse per-row number is tracked, not a regression-gated delta.
const BACKEND_REPS: usize = 2;

/// Times one scalar predict pass over warm tables for every backend in
/// [`BACKEND_REGISTRY`] — registry-driven, so a new backend gets its
/// tracked `BENCH_*.json` row the moment its row lands.
fn bench_backends(c: &mut Criterion, loads: &[(LoadContext, u64)]) {
    let ctxs: Vec<LoadContext> = loads.iter().map(|(ctx, _)| *ctx).collect();
    let mut group = c.benchmark_group("baseline-backends");
    group.sample_size(10);
    for d in BACKEND_REGISTRY {
        let mut p = (d.build)();
        for (ctx, addr) in loads {
            let pred = p.predict(ctx);
            p.update(ctx, *addr, &pred);
        }
        group.bench_function(&format!("single_predict_{}", d.name), |b| {
            b.iter(|| {
                for _ in 0..BACKEND_REPS {
                    for ctx in &ctxs {
                        black_box(p.predict(ctx));
                    }
                }
            });
        });
    }
    group.finish();
}

/// Records per timed iteration of the journal codec benches.
const JOURNAL_RECORDS: usize = 4_096;

/// Prices the delta journal's codec, disk-free: append (render the
/// event line, wrap it in a CRC frame) and replay (frame walk, CRC
/// check, parse back to an event) per record. The storage gate tracks
/// these because the journal sits on the supervisor's per-event path.
fn bench_journal(c: &mut Criterion) -> usize {
    let trace = catalog()[0].generate(JOURNAL_RECORDS);
    let events: Vec<TraceEvent> = trace.iter().take(JOURNAL_RECORDS).copied().collect();
    let encode_one = |i: u64, event: &TraceEvent| {
        let mut w = SectionWriter::new();
        w.put_u64(i * 40);
        w.put_u64(i);
        w.put_u64(i);
        let line = event_line(event);
        w.put_len(line.len());
        w.put_raw(line.as_bytes());
        encode_journal_record(&w.into_bytes())
    };
    let mut journal = encode_journal_header(0);
    for (i, event) in events.iter().enumerate() {
        journal.extend_from_slice(&encode_one(i as u64 + 1, event));
    }

    let mut group = c.benchmark_group("baseline-journal");
    group.sample_size(20);

    group.bench_function("journal_append", |b| {
        b.iter(|| {
            let mut bytes = encode_journal_header(0);
            for (i, event) in events.iter().enumerate() {
                bytes.extend_from_slice(&encode_one(i as u64 + 1, event));
            }
            black_box(bytes.len())
        });
    });

    group.bench_function("journal_replay", |b| {
        b.iter(|| {
            let replay = JournalReplay::parse(&journal).expect("pristine journal parses");
            let mut replayed = 0u64;
            for payload in &replay.records {
                let mut r = SectionReader::new(payload, "journal");
                let _ = r.take_u64("byte offset").expect("offset");
                let line = r.take_u64("line").expect("line");
                let _ = r.take_u64("events").expect("events");
                let n = r.take_len(1, "line length").expect("len");
                let raw = r.take_raw(n, "line").expect("raw");
                let text = std::str::from_utf8(raw).expect("utf8");
                black_box(parse_event_line(text, line as usize).expect("parses"));
                replayed += 1;
            }
            replayed
        });
    });

    group.finish();
    events.len()
}

/// Prices every ladder rung on the default hybrid backend: a
/// single-worker pinned service (so routing never spreads the load),
/// warmed with observes, then timed over predict-only round-trips.
/// Returns `(rung name, p50, p99)` per rung from the last iteration's
/// samples.
fn bench_service(c: &mut Criterion) -> Vec<(&'static str, Duration, Duration)> {
    let mut group = c.benchmark_group("baseline-service");
    group.sample_size(5);
    let mut tails = Vec::new();

    for rung in Rung::ALL {
        let service = Service::start(ServiceConfig {
            workers: 1,
            pin_rung: Some(rung),
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        for i in 0..1_000u64 {
            handle
                .call(
                    Request::Observe {
                        ip: 0x40_1000,
                        offset: 0,
                        ghr: 0,
                        actual: 0x1000 + i * 8,
                    },
                    None,
                )
                .expect("unpressured pinned service serves every request");
        }

        let mut latencies = Vec::with_capacity(REQUESTS);
        group.bench_function(&format!("predict_{}", rung.name()), |b| {
            b.iter(|| {
                latencies.clear();
                for _ in 0..REQUESTS {
                    let start = Instant::now();
                    handle
                        .call(
                            Request::Predict {
                                ip: 0x40_1000,
                                offset: 0,
                                ghr: 0,
                            },
                            None,
                        )
                        .expect("unpressured pinned service serves every request");
                    latencies.push(start.elapsed());
                }
            });
        });

        latencies.sort_unstable();
        let p50 = percentile(&latencies, 0.50);
        let p99 = percentile(&latencies, 0.99);
        println!(
            "  {:<12} p50 {:>9?}   p99 {:>9?}   max {:>9?}",
            rung.name(),
            p50,
            p99,
            latencies.last().copied().unwrap_or_default(),
        );
        tails.push((rung.name(), p50, p99));

        let report = service.shutdown(Duration::from_secs(1));
        assert_eq!(report.drain_rejected, 0);
    }

    group.finish();
    tails
}

/// Prices the router hop: one pinned single-worker node answering
/// predict round-trips over its own socket, then the identical calls
/// through the cluster front door (hash lookup + breaker permit +
/// forwarded frame). The delta between the two tails is what a fleet
/// pays per request for routing. Returns `(direct, via-router)` as
/// `(p50, p99)` pairs.
fn bench_cluster(c: &mut Criterion) -> [(Duration, Duration); 2] {
    let mut group = c.benchmark_group("baseline-cluster");
    group.sample_size(5);

    let node = LocalNode::start(ServiceConfig {
        workers: 1,
        pin_rung: Some(Rung::Hybrid),
        ..ServiceConfig::default()
    })
    .expect("start bench node");
    let mut direct = TcpClient::connect(node.addr()).expect("connect to bench node");
    for i in 0..1_000u64 {
        let reply = direct
            .serve(
                Request::Observe {
                    ip: 0x40_1000,
                    offset: 0,
                    ghr: 0,
                    actual: 0x1000 + i * 8,
                },
                None,
            )
            .expect("unpressured node serves every warmup observe");
        assert!(matches!(reply, WireResponse::Response(_)));
    }

    let predict = Request::Predict {
        ip: 0x40_1000,
        offset: 0,
        ghr: 0,
    };
    let mut latencies = Vec::with_capacity(REQUESTS);
    group.bench_function("predict_direct", |b| {
        b.iter(|| {
            latencies.clear();
            for _ in 0..REQUESTS {
                let start = Instant::now();
                black_box(direct.serve(predict, None).expect("direct predict"));
                latencies.push(start.elapsed());
            }
        });
    });
    latencies.sort_unstable();
    let direct_tail = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));

    let router = Router::new(&[node.addr()], RouterConfig::default()).expect("router");
    group.bench_function("predict_router", |b| {
        b.iter(|| {
            latencies.clear();
            for _ in 0..REQUESTS {
                let start = Instant::now();
                black_box(router.call(predict, None).expect("routed predict"));
                latencies.push(start.elapsed());
            }
        });
    });
    latencies.sort_unstable();
    let router_tail = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));

    for (name, (p50, p99)) in [("direct", direct_tail), ("via router", router_tail)] {
        println!("  {name:<12} p50 {p50:>9?}   p99 {p99:>9?}");
    }
    group.finish();
    drop(router);
    node.stop(Duration::from_secs(1)).expect("stop bench node");
    [direct_tail, router_tail]
}

fn main() {
    let mut criterion = Criterion::from_args();
    let quick = !std::env::args().any(|a| a == "--bench")
        || std::env::var("CAP_BENCH_QUICK").is_ok_and(|v| v != "0");

    let loads = workload();
    bench_predict(&mut criterion, &loads);
    bench_backends(&mut criterion, &loads);
    let journal_records = bench_journal(&mut criterion);
    let tails = bench_service(&mut criterion);
    let [direct, routed] = bench_cluster(&mut criterion);
    criterion.summary();

    let ops = loads.len() * REPS;
    let legacy_ns = ns_per_op(&criterion, "baseline/single_predict_legacy", ops);
    let journal_append_ns = ns_per_op(
        &criterion,
        "baseline-journal/journal_append",
        journal_records,
    );
    let journal_replay_ns = ns_per_op(
        &criterion,
        "baseline-journal/journal_replay",
        journal_records,
    );

    let backend_ops = loads.len() * BACKEND_REPS;
    let backend_lines: Vec<String> = BACKEND_REGISTRY
        .iter()
        .map(|d| {
            let ns = ns_per_op(
                &criterion,
                &format!("baseline-backends/single_predict_{}", d.name),
                backend_ops,
            );
            format!("  \"backend_{}_ns\": {ns:.2},", d.name.replace('-', "_"))
        })
        .collect();

    let rung_lines: Vec<String> = tails
        .iter()
        .map(|(name, p50, p99)| {
            format!(
                "    \"{name}\": {{ \"p50_ns\": {}, \"p99_ns\": {} }}",
                p50.as_nanos(),
                p99.as_nanos()
            )
        })
        .collect();
    let backend_rows = backend_lines.join("\n");
    let json = format!(
        "{{\n  \"schema\": \"cap-bench-baseline-v1\",\n  \"quick\": {quick},\n  \"loads\": {LOADS},\n  \"single_predict_legacy_ns\": {legacy_ns:.2},\n{backend_rows}\n  \"journal_append_ns_per_record\": {journal_append_ns:.2},\n  \"journal_replay_ns_per_record\": {journal_replay_ns:.2},\n  \"cluster_direct_p50_ns\": {},\n  \"cluster_direct_p99_ns\": {},\n  \"cluster_router_p50_ns\": {},\n  \"cluster_router_p99_ns\": {},\n  \"service\": {{\n{}\n  }}\n}}\n",
        direct.0.as_nanos(),
        direct.1.as_nanos(),
        routed.0.as_nanos(),
        routed.1.as_nanos(),
        rung_lines.join(",\n")
    );
    print!("{json}");

    if let Ok(path) = std::env::var("CAP_BENCH_BASELINE_OUT") {
        if !path.is_empty() {
            std::fs::write(&path, &json)
                .unwrap_or_else(|e| panic!("writing baseline JSON to {path}: {e}"));
            println!("baseline JSON written to {path}");
        }
    }
}
