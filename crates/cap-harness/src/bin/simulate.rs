//! `simulate` — the supervised, checkpointed, resumable trace runner.
//!
//! ```text
//! simulate gen --out trace.txt [--suite <i>] [--loads <n>]
//! simulate run --trace trace.txt [--predictor <name>]
//!          [--checkpoint-dir <dir>] [--checkpoint-every <n>] [--keep <k>]
//!          [--resume auto|<path>] [--kill-after <n>] [--chaos-every <n>]
//!          [--seed <s>] [--json]
//! ```
//!
//! `run` drives one predictor over a trace file (`--predictor` takes any
//! name `simulate backends` lists, in any case; default `hybrid`),
//! publishing crash-consistent checkpoints every `--checkpoint-every`
//! events. A run that dies (or is told to die with `--kill-after`, which
//! exits hard with status 137 like a SIGKILL) can be restarted with
//! `--resume auto`: the newest valid checkpoint is recovered, torn files
//! are swept up, and the finished run's metrics are bit-identical to an
//! uninterrupted one.
//!
//! Service mode (the long-lived analogue of `run`):
//!
//! ```text
//! simulate serve --addr 127.0.0.1:0 [--port-file <path>] [--workers <n>]
//!          [--queue <n>] [--snapshot-dir <dir>] [--resume] [--keep <k>]
//!          [--seed <s>] [--pin hybrid|stride-only|bypass]
//! simulate client --addr <host:port> [--trace <path>] [--take <n>]
//!          [--budget-ms <n>] [--stats] [--shutdown <drain-ms>] [--json]
//! simulate top --addr <host:port> [--events <n>] [--json]
//! ```
//!
//! `serve` hosts the resilient prediction service over TCP; a client's
//! shutdown request drains in-flight work under a bounded deadline and
//! publishes a warm-restart snapshot (atomically, via the checkpoint
//! machinery). `serve --resume` restores the newest valid snapshot, so a
//! kill-and-restart cycle loses no trained predictor state.
//!
//! `serve` always runs with a live telemetry registry attached, and
//! `top` is its dashboard: it fetches the registry snapshot over the
//! wire (the `CAPO` stats frame) and prints sorted counter/gauge tables,
//! per-rung latency quantiles, and the newest trace events — or the
//! whole snapshot as JSON with `--json`.
//!
//! Cluster mode (the fleet analogue of `serve`):
//!
//! ```text
//! simulate route --nodes <host:port,...> [--addr <host:port>] [--port-file <p>]
//!          [--ship-every-ms <n>] [--probe-every-ms <n>]
//!          [--respawn --respawn-dir <dir>] [--workers <n>] [--queue <n>] [--seed <s>]
//! simulate top --cluster <host:port,...> [--events <n>] [--json]
//! ```
//!
//! `route` is the fleet front door: it speaks the same wire protocol
//! clients already use, consistent-hash-maps each request's IP onto one
//! of the `--nodes`, ships warm replicas on a cadence, health-probes
//! every node into its breaker, and — with `--respawn` — promotes a
//! freshly spawned `simulate serve` child restored from the latest
//! replica when a node stops answering. Its stats frame reports the
//! request-accounting invariant; its obs frame is the merged fleet view.
//! `top --cluster` produces the same merged dashboard by polling nodes
//! directly, no router required. `client` rides through node restarts
//! with connect retry/backoff (`--connect-retries`).

use cap_cluster::prelude::{Router, RouterConfig};
use cap_faults::fs::RealVfs;
use cap_harness::checkpoint::{
    list_checkpoints, recover_latest_with, rotate_checkpoints_with, write_checkpoint,
    write_checkpoint_with,
};
use cap_harness::json::JsonObject;
use cap_harness::supervisor::{
    run, with_retry, Resume, RetryPolicy, RunOutcome, SupervisorConfig, SupervisorError,
};
use cap_predictor::drive::ControlState;
use cap_service::net::serve_frames;
use cap_service::prelude::*;
use cap_service::wire::MAX_FRAME_LEN;
use cap_trace::io::{read_trace, write_trace};
use cap_trace::suites::catalog;
use cap_trace::TraceEvent;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exit status of a `--kill-after` self-destruct (mirrors SIGKILL's 137).
const KILLED_STATUS: i32 = 137;

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let i = args.iter().position(|a| a == flag);
    if let Some(i) = i {
        args.remove(i);
    }
    i.is_some()
}

fn parse_number(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants a non-negative integer, got '{value}'");
        exit(2);
    })
}

fn usage() -> ! {
    eprintln!("usage: simulate gen --out <path> [--suite <i>] [--loads <n>]");
    eprintln!("       simulate run --trace <path> [--predictor <name>]");
    eprintln!("                [--checkpoint-dir <dir>] [--checkpoint-every <n>] [--keep <k>]");
    eprintln!("                [--journal-every <n>] [--resume auto|<path>]");
    eprintln!("                [--kill-after <n>] [--chaos-every <n>] [--seed <s>] [--json]");
    eprintln!("       simulate serve [--addr <host:port>] [--port-file <path>]");
    eprintln!("                [--workers <n>] [--queue <n>] [--snapshot-dir <dir>] [--resume]");
    eprintln!("                [--keep <k>] [--seed <s>] [--pin hybrid|stride-only|bypass]");
    eprintln!("                [--backend <name>] [--fallback <name>]");
    eprintln!("       simulate backends        (list registered backend names)");
    eprintln!("       simulate client --addr <host:port> [--trace <path>] [--take <n>]");
    eprintln!("                [--budget-ms <n>] [--connect-retries <n>] [--stats]");
    eprintln!("                [--shutdown <drain-ms>] [--json]");
    eprintln!("       simulate route --nodes <host:port,...> [--addr <host:port>]");
    eprintln!("                [--port-file <path>] [--ship-every-ms <n>] [--probe-every-ms <n>]");
    eprintln!("                [--respawn --respawn-dir <dir>] [--admin-file <path>]");
    eprintln!("                [--workers <n>] [--queue <n>] [--seed <s>]");
    eprintln!("       simulate top --addr <host:port> | --cluster <host:port,...>");
    eprintln!("                [--events <n>] [--json]");
    exit(2);
}

fn cmd_gen(mut args: Vec<String>) {
    let out: PathBuf = take_value(&mut args, "--out")
        .unwrap_or_else(|| {
            eprintln!("gen requires --out <path>");
            exit(2);
        })
        .into();
    let suite = take_value(&mut args, "--suite").map_or(1, |v| parse_number("--suite", &v)) as usize;
    let loads = take_value(&mut args, "--loads").map_or(10_000, |v| parse_number("--loads", &v));
    let specs = catalog();
    if suite >= specs.len() {
        eprintln!("--suite {suite} out of range (catalog has {})", specs.len());
        exit(2);
    }
    let trace = specs[suite].generate(loads as usize);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).expect("serializing to memory cannot fail");
    if let Err(e) = std::fs::write(&out, bytes) {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    }
    println!(
        "wrote {} ({} trace '{}', {} loads)",
        out.display(),
        trace.len(),
        specs[suite].name,
        trace.load_count()
    );
}

fn outcome_json(kind: BackendKind, outcome: &RunOutcome) -> String {
    let s = &outcome.stats;
    let resumed = outcome.resumed_from.as_ref().map(|p| p.display().to_string());
    JsonObject::new()
        .string("predictor", kind.name())
        .u64("events", outcome.events)
        .u64("loads", s.loads)
        .u64("predictions", s.predictions)
        .u64("correct_predictions", s.correct_predictions)
        .u64("prediction_rate_bits", s.prediction_rate().to_bits())
        .u64("accuracy_bits", s.accuracy().to_bits())
        .u64("checkpoints_written", outcome.checkpoints_written)
        .u64("journal_appended", outcome.journal_appended)
        .u64("journal_replayed", outcome.journal_replayed)
        .u64("faults_applied", outcome.faults_applied)
        .opt_string("resumed_from", resumed.as_deref())
        .u64("recovery_removed", outcome.recovery_removed.len() as u64)
        .bool("killed", outcome.killed)
        .pretty()
}

/// Renders service-wide stats as JSON — the service's stats endpoint,
/// sharing the same emitter (and `_bits` convention for bit-exact
/// floats) as `repro --json` and `run --json`.
fn service_stats_json(stats: &ServiceStats) -> String {
    let merged = stats.merged_predictor();
    let workers = stats.workers.iter().map(|w| {
        let breakers = w.breakers.iter().map(|b| {
            JsonObject::new()
                .string("component", b.component)
                .string("state", b.state)
                .u64("trips", b.trips)
                .compact()
        });
        JsonObject::new()
            .u64("worker", w.worker as u64)
            .string("rung", w.rung.name())
            .u64("served", w.served)
            .u64("served_hybrid", w.served_by_rung[Rung::Hybrid.index()])
            .u64("served_stride_only", w.served_by_rung[Rung::StrideOnly.index()])
            .u64("served_bypass", w.served_by_rung[Rung::Bypass.index()])
            .u64("deadline_queued", w.deadline_queued)
            .u64("deadline_backend", w.deadline_backend)
            .u64("backend_panics", w.backend_panics)
            .u64("faults_latency", w.faults_latency)
            .u64("faults_stall", w.faults_stall)
            .u64("demotions", w.demotions)
            .u64("promotions", w.promotions)
            .u64("queue_depth", w.queue_depth as u64)
            .array("breakers", breakers)
            .compact()
    });
    JsonObject::new()
        .u64("accepted", stats.accepted)
        .u64("shed", stats.shed)
        .u64("rejected_shutdown", stats.rejected_shutdown)
        .string("worst_rung", stats.worst_rung().name())
        .u64("loads", merged.loads)
        .u64("predictions", merged.predictions)
        .u64("correct_predictions", merged.correct_predictions)
        .u64("prediction_rate_bits", merged.prediction_rate().to_bits())
        .u64("accuracy_bits", merged.accuracy().to_bits())
        .array("workers", workers)
        .pretty()
}

fn cmd_run(mut args: Vec<String>) {
    let trace: PathBuf = take_value(&mut args, "--trace")
        .unwrap_or_else(|| {
            eprintln!("run requires --trace <path>");
            exit(2);
        })
        .into();
    let kind = take_value(&mut args, "--predictor")
        .map_or(BackendKind::Hybrid, |v| parse_backend("--predictor", &v));
    let json = take_flag(&mut args, "--json");

    let mut config = SupervisorConfig::new(trace, kind);
    config.checkpoint_dir = take_value(&mut args, "--checkpoint-dir").map(PathBuf::from);
    if let Some(v) = take_value(&mut args, "--checkpoint-every") {
        config.checkpoint_every = parse_number("--checkpoint-every", &v);
    }
    if let Some(v) = take_value(&mut args, "--keep") {
        config.keep = parse_number("--keep", &v) as usize;
    }
    if let Some(v) = take_value(&mut args, "--journal-every") {
        config.journal_flush_every = parse_number("--journal-every", &v);
    }
    if let Some(v) = take_value(&mut args, "--kill-after") {
        config.kill_after = Some(parse_number("--kill-after", &v));
    }
    if let Some(v) = take_value(&mut args, "--chaos-every") {
        config.chaos_every = parse_number("--chaos-every", &v);
    }
    if let Some(v) = take_value(&mut args, "--seed") {
        config.seed = parse_number("--seed", &v);
    }
    if let Some(v) = take_value(&mut args, "--resume") {
        config.resume = if v == "auto" {
            Resume::Auto
        } else {
            Resume::From(PathBuf::from(v))
        };
    }
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }
    if config.checkpoint_every > 0 && config.checkpoint_dir.is_none() {
        eprintln!("--checkpoint-every needs --checkpoint-dir");
        exit(2);
    }
    if config.journal_flush_every > 0 && config.checkpoint_dir.is_none() {
        eprintln!("--journal-every needs --checkpoint-dir");
        exit(2);
    }

    match run(&config) {
        Ok(outcome) if outcome.killed => {
            // Simulate a crash: die hard, without reporting results — the
            // checkpoints on disk are the only state that survives.
            eprintln!(
                "killed at event {} ({} checkpoints on disk)",
                outcome.events, outcome.checkpoints_written
            );
            exit(KILLED_STATUS);
        }
        Ok(outcome) => {
            if json {
                println!("{}", outcome_json(kind, &outcome));
            } else {
                let s = &outcome.stats;
                if let Some(path) = &outcome.resumed_from {
                    println!("resumed from {}", path.display());
                }
                println!(
                    "{} over {} events: {} loads, {} predictions, {} correct \
                     (rate {:.4}, accuracy {:.4}), {} checkpoints, {} faults",
                    kind.name(),
                    outcome.events,
                    s.loads,
                    s.predictions,
                    s.correct_predictions,
                    s.prediction_rate(),
                    s.accuracy(),
                    outcome.checkpoints_written,
                    outcome.faults_applied,
                );
            }
        }
        Err(e @ SupervisorError::Mismatch(_)) => {
            eprintln!("refusing to resume: {e}");
            exit(3);
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            exit(1);
        }
    }
}

fn parse_rung(v: &str) -> Rung {
    Rung::ALL
        .into_iter()
        .find(|r| r.name() == v)
        .unwrap_or_else(|| {
            eprintln!("--pin wants hybrid|stride-only|bypass, got '{v}'");
            exit(2);
        })
}

/// Resolves a backend name through the registry; the error already
/// lists every registered name.
fn parse_backend(flag: &str, v: &str) -> BackendKind {
    BackendKind::parse(v).unwrap_or_else(|e| {
        eprintln!("{flag}: {e}");
        exit(2);
    })
}

/// Prints the registered backend names, one per line (scriptable:
/// `verify.sh backends` iterates this).
fn cmd_backends(args: Vec<String>) {
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }
    for d in BACKEND_REGISTRY {
        println!("{}", d.name);
    }
}

/// Hosts the prediction service over TCP until a client's shutdown
/// frame, then drains, snapshots, and exits.
fn cmd_serve(mut args: Vec<String>) {
    let addr = take_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let port_file = take_value(&mut args, "--port-file").map(PathBuf::from);
    let snapshot_dir = take_value(&mut args, "--snapshot-dir").map(PathBuf::from);
    let resume = take_flag(&mut args, "--resume");
    let keep = take_value(&mut args, "--keep").map_or(3, |v| parse_number("--keep", &v) as usize);

    let mut config = ServiceConfig::default();
    if let Some(v) = take_value(&mut args, "--workers") {
        config.workers = parse_number("--workers", &v) as usize;
    }
    if let Some(v) = take_value(&mut args, "--queue") {
        config.queue_capacity = parse_number("--queue", &v) as usize;
    }
    if let Some(v) = take_value(&mut args, "--seed") {
        config.seed = parse_number("--seed", &v);
    }
    config.pin_rung = take_value(&mut args, "--pin").map(|v| parse_rung(&v));
    if let Some(v) = take_value(&mut args, "--backend") {
        config.primary = parse_backend("--backend", &v);
    }
    if let Some(v) = take_value(&mut args, "--fallback") {
        config.fallback = parse_backend("--fallback", &v);
    }
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }
    if resume && snapshot_dir.is_none() {
        eprintln!("--resume needs --snapshot-dir");
        exit(2);
    }

    // The server always runs instrumented: one registry shared by the
    // admission path, workers, breakers, and ladder, exported over the
    // wire as the `CAPO` stats frame (see `simulate top`).
    let registry = Arc::new(cap_obs::Registry::new());
    config.obs = registry.obs();

    // Warm restart: newest valid snapshot wins; corrupt or missing
    // snapshots degrade to a cold start (the recovery sweep logs what
    // it discards). A dead service is never the answer.
    let recovered = if resume {
        let dir = snapshot_dir.as_deref().expect("checked above");
        match recover_latest_with(&RealVfs, dir) {
            Ok(recovery) => {
                for path in &recovery.removed {
                    eprintln!("swept invalid snapshot {}", path.display());
                }
                recovery.chosen
            }
            Err(e) => {
                eprintln!("snapshot recovery failed ({e}); starting cold");
                None
            }
        }
    } else {
        None
    };
    let recovered_from = recovered.as_ref().map(|(path, _)| path.clone());
    let (service, warm) =
        Service::restore_or_cold(config, recovered.as_ref().map(|(_, bytes)| bytes.as_slice()));
    match (&recovered_from, warm) {
        (Some(path), true) => eprintln!("warm restart from {}", path.display()),
        (Some(path), false) => {
            eprintln!("snapshot {} did not restore; started cold", path.display());
        }
        (None, _) => {}
    }

    let exporter: ObsExporter = {
        let registry = Arc::clone(&registry);
        Arc::new(move || registry.snapshot().encode())
    };
    let server = TcpServer::bind(addr.as_str(), service.handle(), stats_renderer())
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {addr}: {e}");
            exit(1);
        })
        .with_obs_exporter(exporter);
    let local = server.local_addr().expect("bound socket has an address");
    println!("serving on {local}");
    if let Some(path) = &port_file {
        // Scripts pass --addr host:0 and read the real port from here.
        if let Err(e) = std::fs::write(path, format!("{}\n", local.port())) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
    }

    let drain = server.run().unwrap_or_else(|e| {
        eprintln!("accept loop failed: {e}");
        exit(1);
    });
    let report = service.shutdown(drain);
    if let Some(dir) = &snapshot_dir {
        // Monotonic sequence numbers chain restarts; atomic publication
        // and rotation come from the checkpoint machinery.
        let seq = list_checkpoints(dir)
            .ok()
            .and_then(|list| list.last().map(|(n, _)| n + 1))
            .unwrap_or(1);
        match write_checkpoint_with(&RealVfs, dir, seq, &report.snapshot, &registry.obs()) {
            Ok(path) => {
                let rotation = rotate_checkpoints_with(&RealVfs, dir, keep, &registry.obs());
                match rotation {
                    Ok(r) => {
                        if let Some(e) = r.first_error {
                            eprintln!("snapshot rotation incomplete: {e}");
                        }
                    }
                    Err(e) => eprintln!("snapshot rotation failed: {e}"),
                }
                eprintln!("snapshot published to {}", path.display());
            }
            Err(e) => {
                eprintln!("snapshot write failed: {e}");
                exit(1);
            }
        }
    }
    let served: u64 = report.workers.iter().map(|w| w.served).sum();
    println!(
        "drained ({} served, {} rejected during drain); snapshot {} bytes",
        served,
        report.drain_rejected,
        report.snapshot.len()
    );
}

fn stats_renderer() -> StatsRenderer {
    Arc::new(|stats: &ServiceStats| service_stats_json(stats))
}

/// Drives a trace through a running server and/or issues control
/// requests (stats, shutdown).
fn cmd_client(mut args: Vec<String>) {
    let addr = take_value(&mut args, "--addr").unwrap_or_else(|| {
        eprintln!("client requires --addr <host:port>");
        exit(2);
    });
    let trace_path = take_value(&mut args, "--trace").map(PathBuf::from);
    let take = take_value(&mut args, "--take").map(|v| parse_number("--take", &v));
    let budget =
        take_value(&mut args, "--budget-ms").map(|v| parse_number("--budget-ms", &v));
    let want_stats = take_flag(&mut args, "--stats");
    let shutdown_ms = take_value(&mut args, "--shutdown").map(|v| parse_number("--shutdown", &v));
    let retries = take_value(&mut args, "--connect-retries")
        .map_or(5, |v| parse_number("--connect-retries", &v)) as u32;
    let json = take_flag(&mut args, "--json");
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }

    // Connect rides through node restarts: during a rolling restart the
    // listener is down for a beat, and a refused connect is transient,
    // not fatal. Backoff doubles from 50ms; ~5 attempts spans a node's
    // drain-snapshot-respawn window.
    let policy = RetryPolicy {
        attempts: retries.max(1),
        base_delay: Duration::from_millis(50),
        max_elapsed: Some(Duration::from_secs(15)),
    };
    let mut client = with_retry(&policy, |_| true, || TcpClient::connect(addr.as_str()))
        .unwrap_or_else(|e| {
            eprintln!("cannot connect to {addr}: {e}");
            exit(1);
        });

    let mut sent = 0u64;
    let mut correct = 0u64;
    let mut errors = 0u64;
    if let Some(path) = &trace_path {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {}: {e}", path.display());
            exit(1);
        });
        let trace = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", path.display());
            exit(1);
        });
        // Same control-flow tracking as the batch supervisor, so the
        // service sees the GHR the paper's predictors expect.
        let mut control = ControlState::default();
        let budget = budget.map(Duration::from_millis);
        'trace: for event in trace.events() {
            match event {
                TraceEvent::Load(load) => {
                    if take.is_some_and(|limit| sent >= limit) {
                        break 'trace;
                    }
                    sent += 1;
                    let request = Request::Observe {
                        ip: load.ip,
                        offset: load.offset,
                        ghr: control.ghr,
                        actual: load.addr,
                    };
                    match client.serve(request, budget) {
                        Ok(WireResponse::Response(Response::Observed {
                            correct: hit, ..
                        })) => correct += u64::from(hit),
                        Ok(WireResponse::Error { .. }) => errors += 1,
                        Ok(other) => {
                            eprintln!("unexpected response {other:?}");
                            exit(1);
                        }
                        Err(e) => {
                            eprintln!("transport failed mid-trace: {e}");
                            exit(1);
                        }
                    }
                }
                TraceEvent::Branch(b) => control.on_branch(b.ip, b.taken, b.kind),
                TraceEvent::Store(_) | TraceEvent::Op(_) => {}
            }
        }
        if json {
            println!(
                "{}",
                JsonObject::new()
                    .u64("sent", sent)
                    .u64("correct", correct)
                    .u64("errors", errors)
                    .pretty()
            );
        } else {
            println!("sent {sent} loads: {correct} correct, {errors} structured errors");
        }
    }

    if want_stats {
        match client.stats() {
            Ok(WireResponse::Stats(doc)) => println!("{doc}"),
            Ok(other) => {
                eprintln!("unexpected response {other:?}");
                exit(1);
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                exit(1);
            }
        }
    }

    if let Some(ms) = shutdown_ms {
        match client.shutdown(Duration::from_millis(ms)) {
            Ok(WireResponse::ShutdownAck) => eprintln!("server acknowledged shutdown"),
            Ok(other) => {
                eprintln!("unexpected response {other:?}");
                exit(1);
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                exit(1);
            }
        }
    }
}

/// Fetches a running server's telemetry registry over the wire and
/// prints it `top`-style (or as JSON). With `--cluster`, polls every
/// node and merges the snapshots into one fleet dashboard; nodes that
/// are down are reported and skipped rather than failing the view.
fn cmd_top(mut args: Vec<String>) {
    let addr = take_value(&mut args, "--addr");
    let cluster = take_value(&mut args, "--cluster");
    let events =
        take_value(&mut args, "--events").map_or(16, |v| parse_number("--events", &v) as usize);
    let json = take_flag(&mut args, "--json");
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }

    let snapshot = match (addr, cluster) {
        (Some(addr), None) => {
            let mut client = TcpClient::connect(addr.as_str()).unwrap_or_else(|e| {
                eprintln!("cannot connect to {addr}: {e}");
                exit(1);
            });
            client.obs_stats().unwrap_or_else(|e| {
                eprintln!("obs-stats failed: {e}");
                exit(1);
            })
        }
        (None, Some(list)) => {
            // A dashboard must work *during* an incident: an
            // unreachable (dead or partitioned) node is marked stale
            // and skipped, never fatal to the merge. The read timeout
            // is what keeps a black-holed node from hanging the view.
            let mut merged = cap_obs::StatsSnapshot::default();
            let mut reporting = 0usize;
            let mut polled = 0usize;
            let mut stale: Vec<String> = Vec::new();
            for node in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                polled += 1;
                let snap = TcpClient::connect(node).and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_secs(2)))?;
                    c.obs_stats()
                        .map_err(|e| std::io::Error::other(e.to_string()))
                });
                match snap {
                    Ok(snap) => {
                        merged.merge(&snap);
                        reporting += 1;
                    }
                    Err(e) => {
                        eprintln!("node {node} stale: {e}");
                        stale.push(node.to_owned());
                    }
                }
            }
            if stale.is_empty() {
                eprintln!("fleet view: {reporting}/{polled} nodes reporting");
            } else {
                eprintln!(
                    "fleet view: {reporting}/{polled} nodes reporting (stale: {})",
                    stale.join(", ")
                );
            }
            merged
        }
        _ => {
            eprintln!("top requires exactly one of --addr <host:port> or --cluster <list>");
            exit(2);
        }
    };
    if json {
        println!("{}", cap_harness::json::obs_snapshot_json(&snapshot).pretty());
    } else {
        print!("{}", snapshot.render_top(events));
    }
}

/// The fleet's request-accounting ledger plus routing facts, rendered
/// the same way as the single-node stats frame.
fn router_stats_json(router: &Router) -> String {
    let a = router.accounting();
    JsonObject::new()
        .u64("accepted", a.accepted)
        .u64("answered", a.answered)
        .u64("shed", a.shed)
        .u64("failover_attributed", a.failover_attributed)
        .u64("other_error", a.other_error)
        .bool("balances", a.balances())
        .u64("epoch", router.epoch())
        .u64("nodes", router.node_count() as u64)
        .u64("live_nodes", router.live_node_count() as u64)
        .pretty()
}

/// The front door's answer to one request: `Serve` forwards by hash
/// ring, `Stats` reports the accounting ledger, `ObsStats` returns the
/// merged fleet view, and `SnapshotPull` is refused (the router holds
/// no predictor state).
fn route_request(
    request: WireRequest,
    router: &Router,
    registry: &cap_obs::Registry,
    stop: &AtomicBool,
) -> WireResponse {
    match request {
        // Any client-stamped epoch is ignored: the router stamps its
        // own current epoch on the node-facing hop.
        WireRequest::Serve {
            request,
            budget,
            epoch: _,
        } => match router.call(request, budget) {
            Ok(resp) => WireResponse::Response(resp),
            Err(e) => WireResponse::Error {
                code: e.code(),
                message: e.to_string(),
            },
        },
        WireRequest::Stats => WireResponse::Stats(router_stats_json(router)),
        WireRequest::ObsStats => {
            let (mut merged, _) = router.fleet_obs();
            merged.merge(&registry.snapshot());
            WireResponse::ObsStats(merged.encode())
        }
        WireRequest::SnapshotPull => WireResponse::from_error(&ServiceError::Protocol(
            "the router holds no predictor state; pull snapshots from a node".into(),
        )),
        WireRequest::Fence { .. }
        | WireRequest::ReplicaPush { .. }
        | WireRequest::ReplicaFetch { .. } => WireResponse::from_error(&ServiceError::Protocol(
            "fence and replica frames are node-facing; the router front door refuses them".into(),
        )),
        WireRequest::Shutdown { .. } => {
            stop.store(true, Ordering::Release);
            WireResponse::ShutdownAck
        }
    }
}

/// Spawns a replacement `simulate serve` child seeded from the latest
/// shipped replica (when one exists) and promotes it into slot `node`.
/// Returns the replacement's address.
fn respawn_node(
    router: &Router,
    node: usize,
    dir: &Path,
    workers: u64,
    queue: u64,
    seed: Option<u64>,
) -> std::io::Result<SocketAddr> {
    use std::io::{Error, ErrorKind};
    let node_dir = dir.join(format!("node-{node}"));
    std::fs::create_dir_all(&node_dir)?;
    let port_file = node_dir.join("port");
    let _ = std::fs::remove_file(&port_file);

    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--queue")
        .arg(queue.to_string())
        .arg("--snapshot-dir")
        .arg(&node_dir)
        .arg("--port-file")
        .arg(&port_file)
        .arg("--keep")
        .arg("3");
    if let Some(seed) = seed {
        cmd.arg("--seed").arg(seed.to_string());
    }
    if let Some((replica, drift)) = router.replica_any(node) {
        // Warm promotion from the best surviving copy — the router's
        // own replica, or the one the shard's ring successor holds
        // (the R>1 payoff). Publish it as the newest checkpoint so the
        // child's --resume restores it. The drift bound says how many
        // answered requests the replacement has not seen; an older
        // fetched generation reports it as unknown rather than lying.
        let seq = list_checkpoints(&node_dir)
            .ok()
            .and_then(|list| list.last().map(|(n, _)| n + 1))
            .unwrap_or(1);
        write_checkpoint(&node_dir, seq, &replica)?;
        cmd.arg("--resume");
        match drift {
            Some(drift) => eprintln!(
                "promoting node {node} from replica (drift bound: {drift} requests)"
            ),
            None => eprintln!(
                "promoting node {node} from replica (drift bound: unknown, older generation)"
            ),
        }
    } else {
        eprintln!("no replica for node {node}; replacement starts cold");
    }
    cmd.stdout(std::process::Stdio::null());
    // The child is a fleet node in its own right; it outlives the
    // router and is reaped by whoever shuts the fleet down.
    let _child = cmd.spawn()?;

    let deadline = Instant::now() + Duration::from_secs(10);
    let port = loop {
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse::<u16>().ok())
        {
            break port;
        }
        if Instant::now() > deadline {
            return Err(Error::new(
                ErrorKind::TimedOut,
                "replacement node never published its port",
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("loopback addr");
    router
        .promote(node, addr, None)
        .map_err(|e| Error::other(e.to_string()))?;
    Ok(addr)
}

/// Applies one admin-file line to the live router: `add <host:port>`
/// grows the ring, `remove <index>` shrinks it. Blank lines and `#`
/// comments are skipped; anything else is reported and ignored.
fn apply_admin_command(router: &Router, line: &str) {
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (None, _) | (Some("#"), _) => {}
        (Some("add"), Some(addr)) => {
            match addr
                .to_socket_addrs()
                .ok()
                .and_then(|mut it| it.next())
                .ok_or_else(|| format!("cannot resolve '{addr}'"))
                .and_then(|a| router.add_node(a).map_err(|e| e.to_string()))
            {
                Ok((index, epoch)) => eprintln!(
                    "admin: node {index} added at {addr} (epoch {epoch}, {} live nodes)",
                    router.live_node_count()
                ),
                Err(e) => eprintln!("admin: add {addr} failed: {e}"),
            }
        }
        (Some("remove"), Some(index)) => {
            match index
                .parse::<usize>()
                .map_err(|e| e.to_string())
                .and_then(|i| router.remove_node(i).map(|r| (i, r)).map_err(|e| e.to_string()))
            {
                Ok((index, (_archive, epoch))) => eprintln!(
                    "admin: node {index} removed (epoch {epoch}, {} live nodes)",
                    router.live_node_count()
                ),
                Err(e) => eprintln!("admin: remove {index} failed: {e}"),
            }
        }
        _ => {
            if !line.starts_with('#') {
                eprintln!("admin: unrecognized command '{line}'");
            }
        }
    }
}

/// Hosts the cluster front door: consistent-hash routing across a
/// fleet of `serve` nodes with background replica shipping, health
/// probes, (with `--respawn`) automatic promote-from-replica when a
/// node goes dark, and (with `--admin-file`) runtime ring resizing.
fn cmd_route(mut args: Vec<String>) {
    let nodes_arg = take_value(&mut args, "--nodes").unwrap_or_else(|| {
        eprintln!("route requires --nodes <host:port,host:port,...>");
        exit(2);
    });
    let addr = take_value(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let port_file = take_value(&mut args, "--port-file").map(PathBuf::from);
    let ship_every = Duration::from_millis(
        take_value(&mut args, "--ship-every-ms").map_or(500, |v| parse_number("--ship-every-ms", &v)),
    );
    let probe_every = Duration::from_millis(
        take_value(&mut args, "--probe-every-ms")
            .map_or(200, |v| parse_number("--probe-every-ms", &v)),
    );
    let respawn = take_flag(&mut args, "--respawn");
    let respawn_dir = take_value(&mut args, "--respawn-dir").map(PathBuf::from);
    let admin_file = take_value(&mut args, "--admin-file").map(PathBuf::from);
    let workers = take_value(&mut args, "--workers").map_or(2, |v| parse_number("--workers", &v));
    let queue = take_value(&mut args, "--queue").map_or(64, |v| parse_number("--queue", &v));
    let seed = take_value(&mut args, "--seed").map(|v| parse_number("--seed", &v));
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {}", args.join(" "));
        usage();
    }
    if respawn && respawn_dir.is_none() {
        eprintln!("--respawn needs --respawn-dir");
        exit(2);
    }

    let mut addrs = Vec::new();
    for part in nodes_arg.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match part.to_socket_addrs().ok().and_then(|mut it| it.next()) {
            Some(a) => addrs.push(a),
            None => {
                eprintln!("cannot resolve node address '{part}'");
                exit(1);
            }
        }
    }

    let registry = Arc::new(cap_obs::Registry::new());
    let rconfig = RouterConfig {
        obs: registry.obs(),
        ..RouterConfig::default()
    };
    let router = Arc::new(Router::new(&addrs, rconfig).unwrap_or_else(|e| {
        eprintln!("router: {e}");
        exit(1);
    }));
    let stop = Arc::new(AtomicBool::new(false));

    // The keeper owns the fleet's background duties on one thread:
    // probes feed the breakers on their cadence, ships refresh replicas
    // on theirs, and three consecutive failed probes trigger the
    // respawn-and-promote path.
    let keeper = {
        let router = Arc::clone(&router);
        let stop = Arc::clone(&stop);
        let respawn_dir = respawn_dir.clone();
        std::thread::Builder::new()
            .name("cap-route-keeper".into())
            .spawn(move || {
                let tick = Duration::from_millis(50);
                let mut until_ship = ship_every;
                let mut until_probe = probe_every;
                let mut strikes = vec![0u32; router.node_count()];
                let mut admin_seen = 0usize;
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    until_probe = until_probe.saturating_sub(tick);
                    until_ship = until_ship.saturating_sub(tick);
                    // Runtime resizing rides an append-only admin file:
                    // each new line is `add <host:port>` or
                    // `remove <index>`, applied in order.
                    if let Some(path) = admin_file.as_deref() {
                        if let Ok(text) = std::fs::read_to_string(path) {
                            let lines: Vec<&str> = text.lines().collect();
                            for line in lines.iter().skip(admin_seen) {
                                apply_admin_command(&router, line.trim());
                            }
                            admin_seen = lines.len();
                        }
                    }
                    if until_probe == Duration::ZERO {
                        until_probe = probe_every;
                        let probes = router.probe_now();
                        if strikes.len() < probes.len() {
                            // add_node grew the fleet since last probe.
                            strikes.resize(probes.len(), 0);
                        }
                        for (i, probed) in probes.into_iter().enumerate() {
                            match probed {
                                Ok(()) => strikes[i] = 0,
                                Err(e) => {
                                    strikes[i] += 1;
                                    if strikes[i] != 3 {
                                        continue;
                                    }
                                    eprintln!("node {i} failed 3 consecutive probes: {e}");
                                    let Some(dir) = respawn_dir.as_deref() else {
                                        continue;
                                    };
                                    match respawn_node(&router, i, dir, workers, queue, seed) {
                                        Ok(addr) => {
                                            strikes[i] = 0;
                                            eprintln!(
                                                "node {i} replaced at {addr} (epoch {})",
                                                router.epoch()
                                            );
                                        }
                                        Err(e) => eprintln!("node {i} respawn failed: {e}"),
                                    }
                                }
                            }
                        }
                    }
                    if until_ship == Duration::ZERO {
                        until_ship = ship_every;
                        for (i, shipped) in router.ship_now().into_iter().enumerate() {
                            if let Err(e) = shipped {
                                eprintln!("replica ship from node {i} failed: {e}");
                            }
                        }
                    }
                }
            })
            .expect("spawn keeper thread")
    };

    let listener = std::net::TcpListener::bind(addr.as_str()).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        exit(1);
    });
    let local = listener.local_addr().expect("bound socket has an address");
    println!("routing on {local} across {} nodes", router.node_count());
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", local.port())) {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        }
    }

    listener
        .set_nonblocking(true)
        .expect("nonblocking accept loop");
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let router = Arc::clone(&router);
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                conns.push(
                    std::thread::Builder::new()
                        .name("cap-route-conn".into())
                        .spawn(move || {
                            serve_frames(stream, MAX_FRAME_LEN, &stop, |request| {
                                route_request(request, &router, &registry, &stop)
                            });
                        })
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("accept failed: {e}");
                stop.store(true, Ordering::Release);
            }
        }
        conns.retain(|c| !c.is_finished());
    }
    for conn in conns {
        let _ = conn.join();
    }
    let _ = keeper.join();

    let acct = router.accounting();
    println!(
        "router drained: {} accepted = {} answered + {} shed + {} failover + {} other \
         (balanced: {}, epoch {})",
        acct.accepted,
        acct.answered,
        acct.shed,
        acct.failover_attributed,
        acct.other_error,
        acct.balances(),
        router.epoch()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "gen" => cmd_gen(args),
        "run" => cmd_run(args),
        "serve" => cmd_serve(args),
        "backends" => cmd_backends(args),
        "client" => cmd_client(args),
        "route" => cmd_route(args),
        "top" => cmd_top(args),
        _ => usage(),
    }
}
