//! `durable-run`: `simulate run` with the README's durability quickstart
//! settings. One catalog trace is written as a trace file; the timed
//! phase repeats `supervisor::run` with the hybrid, checkpointing every
//! 10 000 events, flushing the journal every 500 and keeping 3
//! checkpoints, each run in a fresh directory on the real filesystem.
//! Every run's statistics must equal a plain `Session` over the parsed
//! trace, with every event journalled.

use crate::common::{peak_rss_mib, repeat_setup, Outcome, RunArgs, WorkDir, SETUP_REPS};
use crate::inputs::{durable_spec, trace_digest};
use crate::stats::{Sliced, Summary};
use cap_harness::runner::PredictorFactory;
use cap_harness::supervisor::{run as supervise, PredictorKind, RunOutcome, SupervisorConfig};
use cap_predictor::drive::Session;
use cap_trace::io::{read_trace, write_trace};
use cap_trace::Trace;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Loads in the trace file.
pub const LOADS: usize = 30_000;

/// The README's durability quickstart: checkpoint cadence in events.
pub const CHECKPOINT_EVERY: u64 = 10_000;
/// The README's durability quickstart: journal flush cadence in events.
pub const JOURNAL_FLUSH_EVERY: u64 = 500;
/// The README's durability quickstart: checkpoints kept.
pub const KEEP: usize = 3;

/// Slices the timed runs are cut into (see [`Sliced`]); the end-to-end
/// metrics come from the fastest slice, because the journal's fsyncs
/// wait on a disk other tenants share.
const SLICES: usize = 30;

/// Writes `trace` as a trace file at `path`, synced to disk.
///
/// # Panics
///
/// When the file cannot be written: the workload has no input then.
pub fn write_trace_file(trace: &Trace, path: &Path) {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("serializing to memory cannot fail");
    let file = std::fs::File::create(path).expect("create trace file");
    std::io::Write::write_all(&mut &file, &bytes).expect("write trace file");
    file.sync_all().expect("sync trace file");
}

/// A supervised run over `trace`: durable in `dir`, or plain with `None`.
#[must_use]
pub fn config(trace: &Path, dir: Option<PathBuf>) -> SupervisorConfig {
    let mut c = SupervisorConfig::new(trace, PredictorKind::Hybrid);
    if dir.is_some() {
        c.checkpoint_dir = dir;
        c.checkpoint_every = CHECKPOINT_EVERY;
        c.journal_flush_every = JOURNAL_FLUSH_EVERY;
        c.keep = KEEP;
    }
    c
}

/// Set-up: generate the trace and write it into `work`.
fn setup(seed: u64, work: &Path) -> (Trace, PathBuf) {
    let trace = durable_spec(seed).generate(LOADS);
    let path = work.join("trace.txt");
    write_trace_file(&trace, &path);
    (trace, path)
}

/// Runs the workload.
#[must_use]
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("durable").expect("create the work directory");
    let ((trace, path), setup_s) = repeat_setup(|| setup(args.seed, work.path()), drop);
    out.say(format!(
        "durable-run: trace {} ({} events, {} loads, digest {:016x}), seed {}",
        durable_spec(args.seed).name,
        trace.len(),
        trace.load_count(),
        trace_digest(&trace),
        args.seed
    ));
    if args.trace {
        // This set-up also writes the file; time generation on its own.
        let (_, generate_s) = repeat_setup(|| durable_spec(args.seed).generate(LOADS), drop);
        crate::layers::measure(
            std::slice::from_ref(&trace),
            generate_s,
            crate::replay::Path::Direct,
            &mut out,
        );
        return out;
    }

    let mut run_ms = Vec::new();
    let mut outcomes: Vec<Result<RunOutcome, String>> = Vec::new();
    let mut busy = 0.0;
    let start = Instant::now();
    while outcomes.is_empty() || start.elapsed() < args.seconds {
        let dir = work.path().join(format!("run-{}", outcomes.len()));
        let cfg = config(&path, Some(dir.clone()));
        let t0 = Instant::now();
        let outcome = supervise(&cfg);
        let took = t0.elapsed().as_secs_f64();
        busy += took;
        run_ms.push(took * 1e3);
        outcomes.push(outcome.map_err(|e| e.to_string()));
        // Cleanup is not part of the run a user waits for.
        let _ = std::fs::remove_dir_all(&dir);
    }
    let peak = peak_rss_mib();

    // Reference: a plain Session over the parsed trace file.
    let parsed = read_trace(std::io::BufReader::new(
        std::fs::File::open(&path).expect("reopen the trace file"),
    ))
    .expect("the trace file parses");
    let mut p = PredictorFactory::hybrid().build();
    let plain = Session::new(p.as_mut()).run(&parsed);
    let events = parsed.len() as u64;
    let expected_ckpts = events / CHECKPOINT_EVERY;

    out.attempted = outcomes.len() as u64;
    let mut bad = 0;
    for o in &outcomes {
        match o {
            Ok(o)
                if o.stats == plain
                    && o.events == events
                    && o.journal_appended == events
                    && o.checkpoints_written == expected_ckpts => {}
            Ok(o) => {
                bad += 1;
                out.say(format!(
                    "  mismatch: events {} journal {} checkpoints {} (want {events}/{events}/{expected_ckpts}), stats equal: {}",
                    o.events,
                    o.journal_appended,
                    o.checkpoints_written,
                    o.stats == plain
                ));
            }
            Err(e) => {
                bad += 1;
                out.say(format!("  run failed: {e}"));
            }
        }
    }
    out.fail(
        bad,
        "supervised runs that differ from a plain Session or lost journal records",
    );

    let sliced = Sliced::of(&run_ms, SLICES);
    let loads_per_s = plain.loads as f64 / (sliced.best_mean / 1e3);
    let busy_loads_per_s = plain.loads as f64 * outcomes.len() as f64 / busy;
    let runs = Summary::of(&mut run_ms);
    // From the measured runs themselves (every one was checked equal to
    // the plain Session above); NaN, and so no result, if none finished.
    let rate = outcomes
        .iter()
        .find_map(|o| o.as_ref().ok())
        .map_or(f64::NAN, |o| o.stats.prediction_rate() * 100.0);
    out.metrics.put("setup_s", setup_s, "s");
    out.metrics.put("peak_rss_mb", peak, "MiB");
    out.metrics.put("loads_per_s", loads_per_s, "loads/s");
    out.metrics.put("op_p50_us", sliced.best_p50 * 1e3, "us");
    out.metrics.put("hybrid_rate_pct", rate, "%");
    out.say(format!(
        "  setup_s             {setup_s:>14.4} s        (median of {SETUP_REPS} set-ups: trace generation, trace-file write + fsync)"
    ));
    out.say(format!("  peak_rss_mb         {peak:>14.1} MiB"));
    out.say(format!(
        "  durable_loads_per_s {loads_per_s:>14.0} loads/s  ({} runs of {} loads; lowest slice mean of {}, whole run {busy_loads_per_s:.0})  [json: loads_per_s]",
        runs.n, plain.loads, sliced.slices
    ));
    out.say(format!(
        "  supervised run p50  {:>14.2} ms       lowest slice of {}; median slice p50 {:.2} ms, p99 {:.2} ms; whole run p50 {:.2} ms, p99 {:.2} ms, n={}  [json: op_p50_us]",
        sliced.best_p50, sliced.slices, sliced.p50, sliced.p99, runs.p50, runs.p99, runs.n
    ));
    out.say(format!(
        "  hybrid_rate_pct     {rate:>14.2} %        ({} checkpoints and {events} journal records per run)",
        expected_ckpts
    ));
    out.say(format!(
        "  error_ratio         {:>14.6}          ({} failed of {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out
}
