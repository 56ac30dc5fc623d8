//! Differential kill-and-resume through the real `simulate` binary: a run
//! killed hard (exit 137) at an arbitrary event and restarted with
//! `--resume auto` must finish with **bit-identical** metrics to an
//! uninterrupted run — including with chaos injection enabled, since the
//! supervisor's PRNG rides in the checkpoint, and with a delta journal,
//! whose records the resume replays on top of the newest checkpoint.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn simulate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cap-resume-cli-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "command failed: status {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Generates a trace file via `simulate gen` and returns its path.
fn gen_trace(dir: &Path, loads: u64) -> PathBuf {
    let trace = dir.join("trace.txt");
    let output = simulate()
        .args(["gen", "--out"])
        .arg(&trace)
        .args(["--loads", &loads.to_string(), "--suite", "1"])
        .output()
        .expect("spawn simulate gen");
    stdout_of(&output);
    assert!(trace.exists());
    trace
}

/// The stable subset of the JSON report: everything except the fields
/// that legitimately differ between a fresh and a resumed process
/// (resumed_from, recovery_removed, checkpoints_written, faults_applied —
/// the latter two count per-process work, not logical-run totals).
fn metrics_of(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| {
            [
                "\"predictor\"",
                "\"events\"",
                "\"loads\"",
                "\"predictions\"",
                "\"correct_predictions\"",
                "\"prediction_rate_bits\"",
                "\"accuracy_bits\"",
                "\"killed\"",
            ]
            .iter()
            .any(|k| l.trim_start().starts_with(k))
        })
        .map(|l| l.trim().trim_end_matches(',').to_owned())
        .collect()
}

/// The value of a `"key": <u64>` line in a JSON report, if present.
fn u64_field(json: &str, key: &str) -> Option<u64> {
    json.lines()
        .find_map(|l| l.trim_start().strip_prefix(&format!("\"{key}\": ")))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
}

/// `journal_every`, when set, adds `--journal-every` to the checkpointed
/// runs: the kill must then leave a journal on disk and the resume must
/// replay it.
fn differential_kill_resume(tag: &str, chaos: &[&str], journal_every: Option<u64>) {
    let dir = temp_dir(tag);
    let journal: Vec<String> = journal_every
        .map(|n| vec!["--journal-every".to_owned(), n.to_string()])
        .unwrap_or_default();
    let trace = gen_trace(&dir, 4_000);
    let ckpts = dir.join("ckpts");

    // Reference: uninterrupted run.
    let reference = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--predictor", "hybrid", "--seed", "77", "--json"])
        .args(chaos)
        .output()
        .expect("spawn reference run");
    let reference_metrics = metrics_of(&stdout_of(&reference));
    assert!(!reference_metrics.is_empty());

    // Killed run: checkpoints every 700 events, dies hard at 3 000
    // (guaranteed inside the trace: 4 000 loads means >= 4 000 events).
    let killed = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--predictor", "hybrid", "--seed", "77"])
        .args(["--checkpoint-dir"])
        .arg(&ckpts)
        .args(["--checkpoint-every", "700", "--kill-after", "3000"])
        .args(chaos)
        .args(&journal)
        .output()
        .expect("spawn killed run");
    assert_eq!(
        killed.status.code(),
        Some(137),
        "kill must exit hard: stderr {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        killed.stdout.is_empty(),
        "a killed run reports nothing — only its checkpoints survive"
    );
    assert!(
        fs::read_dir(&ckpts).unwrap().count() > 0,
        "checkpoints on disk"
    );
    if journal_every.is_some() {
        let journaled = fs::read_dir(&ckpts).unwrap().any(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.starts_with("journal-") && name.ends_with(".capj")
        });
        assert!(journaled, "a journaled run leaves its journal on disk");
    }

    // Resumed run: recovers the newest checkpoint and finishes.
    let resumed = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--predictor", "hybrid", "--seed", "77"])
        .args(["--checkpoint-dir"])
        .arg(&ckpts)
        .args(["--checkpoint-every", "700", "--resume", "auto", "--json"])
        .args(chaos)
        .args(&journal)
        .output()
        .expect("spawn resumed run");
    let resumed_stdout = stdout_of(&resumed);
    assert!(
        resumed_stdout.contains("\"resumed_from\": \"") && resumed_stdout.contains("ckpt-"),
        "must actually resume: {resumed_stdout}"
    );
    if journal_every.is_some() {
        let replayed = u64_field(&resumed_stdout, "journal_replayed");
        assert!(
            replayed.is_some_and(|n| n > 0),
            "resume must replay the delta journal: {resumed_stdout}"
        );
    }
    assert_eq!(
        metrics_of(&resumed_stdout),
        reference_metrics,
        "resumed metrics must be bit-identical to the uninterrupted run"
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_run_resumes_bit_identical() {
    differential_kill_resume("plain", &[], None);
}

#[test]
fn killed_chaotic_run_resumes_bit_identical() {
    differential_kill_resume("chaos", &["--chaos-every", "150"], None);
}

#[test]
fn killed_journaled_run_replays_the_journal_bit_identical() {
    differential_kill_resume("journal", &[], Some(128));
}

#[test]
fn resume_refuses_a_checkpoint_from_another_predictor() {
    let dir = temp_dir("refuse");
    let trace = gen_trace(&dir, 2_000);
    let ckpts = dir.join("ckpts");

    let killed = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--predictor", "hybrid", "--checkpoint-dir"])
        .arg(&ckpts)
        .args(["--checkpoint-every", "500", "--kill-after", "1500"])
        .output()
        .expect("spawn killed run");
    assert_eq!(killed.status.code(), Some(137));

    let wrong = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--predictor", "stride", "--checkpoint-dir"])
        .arg(&ckpts)
        .args(["--resume", "auto"])
        .output()
        .expect("spawn mismatched resume");
    assert_eq!(
        wrong.status.code(),
        Some(3),
        "mismatch has its own exit code"
    );
    let stderr = String::from_utf8_lossy(&wrong.stderr);
    assert!(
        stderr.contains("hybrid") && stderr.contains("stride"),
        "the refusal names both kinds: {stderr}"
    );

    fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_auto_with_an_empty_directory_starts_fresh() {
    let dir = temp_dir("fresh");
    let trace = gen_trace(&dir, 1_000);
    let ckpts = dir.join("ckpts");
    fs::create_dir_all(&ckpts).unwrap();

    let output = simulate()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--checkpoint-dir"])
        .arg(&ckpts)
        .args(["--resume", "auto", "--json"])
        .output()
        .expect("spawn fresh-auto run");
    let stdout = stdout_of(&output);
    assert!(stdout.contains("\"resumed_from\": null"), "{stdout}");

    fs::remove_dir_all(&dir).ok();
}
