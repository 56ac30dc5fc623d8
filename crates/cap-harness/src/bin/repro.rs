//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                  # every experiment at full scale
//! repro fig5 fig9            # a subset
//! repro fig7 --quick         # reduced scale (bench-sized)
//! repro list                 # enumerate experiment ids
//! ```
//!
//! Resilience flags (the chaos-hardened batch mode):
//!
//! ```text
//! --keep-going               # a panicking experiment doesn't stop the batch
//! --budget-secs <n>          # per-experiment wall-clock budget
//! --json <path>              # write a machine-readable results summary
//! --tiny                     # minimal scale (integration-test sized)
//! --inject-panic <id>        # force <id> to panic (resilience self-test)
//! ```
//!
//! Each experiment runs on its own thread behind `catch_unwind`, so a
//! panic (or a blown budget) is recorded as that experiment's outcome and
//! the partial-results JSON is still emitted — the batch never loses the
//! figures that *did* reproduce.

use cap_harness::experiments::{ext, fig10, fig11, fig12, fig5, fig6, fig7, fig8, fig9, text};
use cap_harness::json::JsonObject;
use cap_harness::runner::Scale;
use cap_harness::ExperimentReport;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const EXPERIMENTS: [&str; 19] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "text-coverage",
    "text-lt-sweep",
    "text-update-policy",
    "text-control-based",
    "text-pollution",
    "ext-delta",
    "ext-variable-history",
    "ext-profile",
    "ext-value",
    "ext-prefetch",
    "ext-wrongpath",
];

fn run_one(id: &str, scale: &Scale) -> Option<ExperimentReport> {
    let report = match id {
        "fig5" => fig5::run(scale).1,
        "fig6" => fig6::run(scale).1,
        "fig7" => fig7::run(scale).1,
        "fig8" => fig8::run(scale).1,
        "fig9" => fig9::run(scale).1,
        "fig10" => fig10::run(scale).1,
        "fig11" => fig11::run(scale).1,
        "fig12" => fig12::run(scale).1,
        "text-coverage" => text::coverage(scale).1,
        "text-lt-sweep" => text::lt_sweep(scale).1,
        "text-update-policy" => text::update_policy(scale).1,
        "text-control-based" => text::control_based(scale).1,
        "text-pollution" => text::pollution(scale).1,
        "ext-delta" => ext::delta_correlation(scale).1,
        "ext-variable-history" => ext::variable_history(scale).1,
        "ext-profile" => ext::profile_guided(scale).1,
        "ext-value" => ext::value_vs_address(scale).1,
        "ext-prefetch" => ext::prefetch(scale).1,
        "ext-wrongpath" => ext::wrong_path(scale).1,
        _ => return None,
    };
    Some(report)
}

/// Prints the catalog's trace characterisation (the §2-style analysis).
fn print_trace_stats(scale: &Scale) {
    use cap_harness::table::{pct, Table};
    use cap_trace::stats::TraceStats;
    let mut table = Table::new(vec![
        "trace".into(),
        "instrs".into(),
        "loads".into(),
        "static loads".into(),
        "unique addrs".into(),
        "constant".into(),
        "stride".into(),
    ]);
    for spec in scale.traces() {
        let trace = spec.generate(scale.loads_per_trace);
        let s = TraceStats::compute(&trace);
        table.add_row(vec![
            spec.name.to_owned(),
            s.instructions.to_string(),
            s.loads.to_string(),
            s.static_loads.to_string(),
            s.unique_addresses.to_string(),
            pct(s.constant_fraction),
            pct(s.stride_fraction),
        ]);
    }
    println!("== trace catalog characterisation ==\n");
    print!("{}", table.render());
}

/// How one experiment ended.
enum Status {
    Ok,
    Panicked(String),
    TimedOut,
}

impl Status {
    fn as_str(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Panicked(_) => "panicked",
            Status::TimedOut => "timed-out",
        }
    }
}

struct Outcome {
    id: &'static str,
    status: Status,
    seconds: f64,
}

/// Runs one experiment on its own thread behind `catch_unwind`, bounded by
/// `budget`. A panic becomes `Status::Panicked`; exceeding the budget
/// becomes `Status::TimedOut` (the runaway thread is detached — its result,
/// if it ever arrives, is dropped with the channel).
fn run_isolated(id: &'static str, scale: Scale, budget: Option<Duration>, inject: bool) -> Outcome {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(move || {
            if inject {
                panic!("injected panic (--inject-panic {id})");
            }
            run_one(id, &scale)
        });
        // A send failure means the main thread timed out and dropped the
        // receiver; nothing to do.
        let _ = tx.send(result);
    });
    let status = match budget {
        Some(limit) => rx.recv_timeout(limit),
        None => rx.recv().map_err(mpsc::RecvTimeoutError::from),
    }
    .map_or(Status::TimedOut, |result| match result {
        Ok(report) => {
            if let Some(report) = report {
                println!("{report}");
            }
            Status::Ok
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_owned());
            Status::Panicked(msg)
        }
    });
    Outcome {
        id,
        status,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Renders the partial-results summary via the workspace's shared JSON
/// emitter ([`cap_harness::json`]).
fn results_json(scale_name: &str, outcomes: &[Outcome]) -> String {
    let experiments = outcomes.iter().map(|o| {
        let mut entry = JsonObject::new()
            .string("id", o.id)
            .string("status", o.status.as_str())
            .f64("seconds", o.seconds, 3);
        if let Status::Panicked(msg) = &o.status {
            entry = entry.string("error", msg);
        }
        entry.compact()
    });
    let ok = outcomes
        .iter()
        .filter(|o| matches!(o.status, Status::Ok))
        .count();
    let mut body = JsonObject::new()
        .string("scale", scale_name)
        .array("experiments", experiments)
        .u64("ok", ok as u64)
        .u64("failed", (outcomes.len() - ok) as u64)
        .pretty();
    body.push('\n');
    body
}

/// Takes the value following a `--flag value` pair out of `args`.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let tiny = take_flag(&mut args, "--tiny");
    let keep_going = take_flag(&mut args, "--keep-going");
    let budget = take_value(&mut args, "--budget-secs").map(|v| {
        Duration::from_secs(v.parse().unwrap_or_else(|_| {
            eprintln!("--budget-secs wants a number of seconds, got '{v}'");
            std::process::exit(2);
        }))
    });
    let json_path = take_value(&mut args, "--json");
    let inject_panic = take_value(&mut args, "--inject-panic");

    let (scale, scale_name) = if tiny {
        (Scale::tiny(), "tiny")
    } else if quick {
        (Scale::bench(), "quick")
    } else {
        (Scale::full(), "full")
    };

    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if selected.is_empty() || selected.contains(&"help") {
        eprintln!("usage: repro <experiment|all|list|stats> [--quick|--tiny]");
        eprintln!("       [--keep-going] [--budget-secs <n>] [--json <path>]");
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        std::process::exit(selected.is_empty() as i32);
    }
    if selected.contains(&"list") {
        for id in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    if selected.contains(&"stats") {
        print_trace_stats(&scale);
        return;
    }

    // Resolve every id up front (to the 'static names threads can carry);
    // unknown ids fail the whole invocation before anything runs.
    let ids: Vec<&'static str> = if selected.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        selected
            .iter()
            .map(|want| {
                EXPERIMENTS
                    .iter()
                    .copied()
                    .find(|id| id == want)
                    .unwrap_or_else(|| {
                        eprintln!("unknown experiment '{want}' (try 'repro list')");
                        std::process::exit(1);
                    })
            })
            .collect()
    };

    let mut outcomes: Vec<Outcome> = Vec::with_capacity(ids.len());
    let mut failed = false;
    for id in ids {
        let inject = inject_panic.as_deref() == Some(id);
        let outcome = run_isolated(id, scale, budget, inject);
        match &outcome.status {
            Status::Ok => println!("[{id} completed in {:.1}s]\n", outcome.seconds),
            Status::Panicked(msg) => {
                eprintln!("[{id} PANICKED after {:.1}s: {msg}]\n", outcome.seconds)
            }
            Status::TimedOut => {
                eprintln!("[{id} TIMED OUT after {:.1}s budget]\n", outcome.seconds)
            }
        }
        failed |= !matches!(outcome.status, Status::Ok);
        outcomes.push(outcome);
        if failed && !keep_going {
            break;
        }
    }

    // Partial results are emitted whatever happened above: explicitly
    // requested paths always, and a default path in batch (--keep-going)
    // mode so a chaos run never ends empty-handed.
    let json_target = json_path.or_else(|| keep_going.then(|| "repro-results.json".to_owned()));
    if let Some(path) = json_target {
        let json = results_json(scale_name, &outcomes);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("results written to {path}");
    }

    if failed && !keep_going {
        std::process::exit(1);
    }
}
