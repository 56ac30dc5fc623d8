//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|replay-direct|replay-fleet|durable-run> \
//!     [--seed <n>] [--seconds <s>] [--trace 0|1]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --pins
//! ```
//!
//! A run prints a human-readable report, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `--pins`
//! prints the figure sweep's simulated counts for the default seed in the
//! format of `pins/figures_seed0.txt`. See `README.md` for the workloads.

mod common;
mod durable;
mod figures;
mod inputs;
mod layers;
mod replay;
mod stats;
mod sweep;

use common::{Outcome, RunArgs};
use std::process::exit;
use std::time::Duration;

/// The workloads `BENCHMARK.json` declares, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["figures", "replay-direct"];

/// Workloads that run by hand but are not declared, so that the declared
/// ones can run long enough to be steady (see `README.md`).
pub const UNGATED: [&str; 2] = ["replay-fleet", "durable-run"];

/// End-to-end metrics every `--trace 0` run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("loads_per_s", "loads/s"),
    ("op_p50_us", "us"),
    ("hybrid_rate_pct", "%"),
];

/// Per-layer metrics every `--trace 1` run reports, with their units.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("trace.generate_ms", "ms"),
    ("trace.parse_ns_per_event", "ns"),
    ("predictor.predict_ns", "ns"),
    ("predictor.update_ns", "ns"),
    ("predictor.loads.stride", "count"),
    ("predictor.predictions.stride", "count"),
    ("predictor.correct.stride", "count"),
    ("session.ns_per_load.stride", "ns"),
    ("predictor.loads.cap", "count"),
    ("predictor.predictions.cap", "count"),
    ("predictor.correct.cap", "count"),
    ("session.ns_per_load.cap", "ns"),
    ("predictor.loads.hybrid", "count"),
    ("predictor.predictions.hybrid", "count"),
    ("predictor.correct.hybrid", "count"),
    ("session.ns_per_load.hybrid", "ns"),
    ("predictor.loads.hybrid_gap8", "count"),
    ("predictor.predictions.hybrid_gap8", "count"),
    ("predictor.correct.hybrid_gap8", "count"),
    ("session.ns_per_load.hybrid_gap8", "ns"),
    ("uarch.ns_per_inst.base", "ns"),
    ("uarch.ns_per_inst.hybrid", "ns"),
    ("uarch.cycles.base", "cycles"),
    ("uarch.cycles.hybrid", "cycles"),
    ("uarch.l1_hit_rate", "ratio"),
    ("uarch.hybrid_speedup", "x"),
    ("snapshot.journal_append_ns", "ns"),
    ("harness.plain_loads_per_s", "loads/s"),
    ("harness.checkpoint_write_ms", "ms"),
    ("service.backend_observe_ns", "ns"),
    ("service.call_us", "us"),
    ("service.call_p50_us", "us"),
    ("service.self_ns", "ns"),
    ("wire.codec_ns", "ns"),
    ("net.rtt_us", "us"),
    ("net.rtt_p50_us", "us"),
    ("net.self_us", "us"),
    ("cluster.route_us", "us"),
    ("cluster.route_p50_us", "us"),
    ("cluster.hop_us", "us"),
    ("cluster.ship_ms", "ms"),
    ("cluster.ship_max_ms", "ms"),
    ("cluster.ship_bytes", "bytes"),
    ("cluster.ships", "count"),
    ("cluster.probe_us", "us"),
    ("snapshot.live_ms", "ms"),
    ("snapshot.archive_bytes", "bytes"),
    ("service.shed", "count"),
    ("cluster.shed", "count"),
    ("cluster.failover", "count"),
    ("cluster.other_error", "count"),
    ("budget.residual_pct", "%"),
    ("replay.p99_us", "us"),
    ("replay.tail_us", "us"),
    ("replay.samples", "count"),
    ("trace.events", "count"),
    ("trace.traces", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|{}> [--seed <n>] [--seconds <s>] [--trace 0|1]",
        WORKLOADS.join("|"),
        UNGATED.join("|")
    );
    eprintln!("       perfbench --pins");
    exit(2);
}

fn value(args: &[String], i: usize) -> &str {
    args.get(i + 1).map_or_else(|| usage(), String::as_str)
}

fn number(args: &[String], i: usize) -> u64 {
    value(args, i).parse().unwrap_or_else(|_| usage())
}

/// Prints the pinned figure counts for the default seed.
fn print_pins() {
    let specs = inputs::all_specs(inputs::DEFAULT_SEED);
    let traces = inputs::generate(&specs, figures::LOADS_PER_TRACE);
    let configs = sweep::configs();
    let core = cap_uarch::core::CoreConfig::paper_default();
    println!(
        "# trace loads stride_pred stride_correct cap_pred cap_correct hybrid_pred hybrid_correct \
         gap8_pred gap8_correct base_cycles hybrid_cycles"
    );
    println!(
        "# figures workload, seed 0, {} loads per trace; regenerate with `--pins`",
        figures::LOADS_PER_TRACE
    );
    for (spec, trace) in specs.iter().zip(&traces) {
        let (sim, _) = sweep::pass(trace, &configs, &core);
        println!("{}", figures::pin_line(spec.name, &sim));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run = RunArgs {
        seed: inputs::DEFAULT_SEED,
        seconds: Duration::from_secs(50),
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&args, i).to_owned()),
            "--seed" => run.seed = number(&args, i),
            "--seconds" => run.seconds = Duration::from_secs(number(&args, i).max(1)),
            "--trace" => {
                run.trace = match value(&args, i) {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--pins" => {
                print_pins();
                return;
            }
            _ => usage(),
        }
        i += 2;
    }
    let Some(workload) = workload else { usage() };

    // Before any thread starts, so that every thread inherits it.
    let cpu = common::pin_to_one_cpu();
    let mut outcome: Outcome = match workload.as_str() {
        "figures" => figures::run(&run),
        "replay-direct" => replay::run(&run, replay::Path::Direct),
        "replay-fleet" => replay::run(&run, replay::Path::Fleet),
        "durable-run" => durable::run(&run),
        _ => usage(),
    };
    outcome.say(match cpu {
        Some(cpu) => format!("  every thread of the run was confined to CPU {cpu}"),
        None => "  the run's threads were not confined to one CPU".to_owned(),
    });
    for line in &outcome.report {
        println!("{line}");
    }
    let wanted: Vec<&str> = if run.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    match outcome.metrics.select(&wanted) {
        Ok(metrics) => println!(
            "{}",
            stats::result_line(
                outcome.failed == 0,
                outcome.attempted.max(1),
                outcome.failed,
                &metrics
            )
        ),
        Err(missing) => {
            eprintln!("{workload}: metrics not measured: {}", missing.join(", "));
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::{valid_name, valid_unit};

    #[test]
    fn every_metric_and_workload_name_is_valid() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        for w in WORKLOADS.iter().chain(&UNGATED) {
            assert!(valid_name(w), "bad workload name {w}");
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(declared(name), "{name} is not declared in BENCHMARK.json");
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is declared with another unit"
            );
        }
        for w in WORKLOADS {
            assert!(
                declared(w),
                "workload {w} is not declared in BENCHMARK.json"
            );
        }
        for w in UNGATED {
            assert!(!declared(w), "by-hand workload {w} is declared");
        }
        let count = json.matches("\"name\":").count();
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "BENCHMARK.json declares names this benchmark does not report"
        );
    }
}
