//! Storage-fault chaos: the crash-point matrix.
//!
//! One full checkpoint + journal + rotation cycle is run on the
//! in-memory [`ChaosVfs`] to count its VFS operations; then, for *every*
//! operation index `k`, a fresh disk is crashed immediately after op `k`,
//! rebooted, and resumed. Recovery must always land on a complete
//! checkpoint (or a clean cold start) and the resumed run must be
//! bit-identical to an uninterrupted control — including when every
//! fsync on the disk lies.
//!
//! Alongside the matrix: the delta journal's loss bound (a kill between
//! checkpoints resumes through journal replay, not a full re-run of the
//! gap) and torn-tail tolerance (a truncated or bit-flipped journal tail
//! is dropped, never trusted, and never fatal).

use cap_faults::fs::{ChaosVfs, FsFaultConfig, RealVfs};
use cap_harness::checkpoint::list_journals_with;
use cap_harness::supervisor::{run, Resume, RetryPolicy, SupervisorConfig};
use cap_predictor::metrics::PredictorStats;
use cap_service::backend::BackendKind;
use cap_trace::io::write_trace;
use cap_trace::suites::catalog;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cap-storage-chaos-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_temp_trace(dir: &Path, loads: usize) -> PathBuf {
    let trace = catalog()[1].generate(loads);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).expect("serialize");
    let path = dir.join("trace.txt");
    fs::write(&path, bytes).expect("write trace");
    path
}

fn assert_stats_eq(a: &PredictorStats, b: &PredictorStats) {
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.correct_predictions, b.correct_predictions);
    assert_eq!(a.spec_accesses, b.spec_accesses);
    assert_eq!(a.correct_spec, b.correct_spec);
    assert_eq!(a.both_predicted_spec, b.both_predicted_spec);
    assert_eq!(a.selector_states, b.selector_states);
    assert_eq!(a.miss_selections, b.miss_selections);
}

/// One attempt, no backoff: a crashed disk should fail fast, not burn
/// wall-clock retrying a machine that is down.
fn no_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 1,
        base_delay: Duration::ZERO,
        max_elapsed: None,
    }
}

/// The shared shape of every chaos run: checkpoints, a delta journal,
/// rotation pressure (keep = 2), and predictor chaos so the checkpointed
/// RNG stream is load-bearing. The checkpoint directory is a virtual
/// path — it exists only inside the [`ChaosVfs`].
fn chaos_config(trace: &Path, vfs: &ChaosVfs) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(trace, BackendKind::Hybrid);
    cfg.checkpoint_dir = Some(PathBuf::from("/vchaos/ckpts"));
    cfg.checkpoint_every = 300;
    cfg.journal_flush_every = 60;
    cfg.keep = 2;
    cfg.chaos_every = 97;
    cfg.seed = 0xD1CE;
    cfg.retry = no_retry();
    cfg.vfs = Arc::new(vfs.clone());
    cfg
}

/// The matrix itself: crash after every single VFS operation of a full
/// cycle, reboot, resume, and demand bit-identity with the control run.
fn crash_point_matrix(tag: &str, faults: FsFaultConfig) {
    let dir = temp_dir(tag);
    let trace = write_temp_trace(&dir, 500);

    // Control: one uninterrupted run with the same predictor chaos but
    // no storage at all. Storage must never influence the simulation.
    let mut control_cfg = SupervisorConfig::new(&trace, BackendKind::Hybrid);
    control_cfg.chaos_every = 97;
    control_cfg.seed = 0xD1CE;
    let control = run(&control_cfg).expect("control run");
    assert!(control.stats.loads > 0);

    // Count the cycle's operations on an uncrashed disk; this is the
    // index space of the matrix.
    let counter = ChaosVfs::new(7, faults);
    let counted = run(&chaos_config(&trace, &counter)).expect("uncrashed chaos run completes");
    assert!(
        counted.checkpoints_written >= 2,
        "cycle must publish and rotate"
    );
    assert!(counted.journal_appended > 0, "cycle must journal");
    assert_stats_eq(&counted.stats, &control.stats);
    let total = counter.op_count();
    assert!(
        total > 20,
        "cycle must exercise a realistic op count, got {total}"
    );

    for k in 1..=total {
        let vfs = ChaosVfs::new(7, faults);
        vfs.set_crash_after(k);
        // The run dies once it touches storage after op k (or finishes,
        // when k lands in the final flush); either way the disk now
        // holds only what was durable at the crash.
        let _ = run(&chaos_config(&trace, &vfs));
        vfs.reboot();

        let mut resume_cfg = chaos_config(&trace, &vfs);
        resume_cfg.resume = Resume::Auto;
        let resumed = run(&resume_cfg).unwrap_or_else(|e| {
            panic!("crash after op {k}/{total}: recovery failed: {e}");
        });
        assert_eq!(
            resumed.events, control.events,
            "crash after op {k}/{total}: resumed run stopped early"
        );
        assert_stats_eq(&resumed.stats, &control.stats);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_point_matrix_with_faults_off() {
    crash_point_matrix("off", FsFaultConfig::off());
}

#[test]
fn crash_point_matrix_under_half_lying_fsync() {
    crash_point_matrix(
        "half-lie",
        FsFaultConfig {
            p_fsync_lie: 0.5,
            ..FsFaultConfig::off()
        },
    );
}

#[test]
fn crash_point_matrix_under_always_lying_fsync() {
    crash_point_matrix("all-lie", FsFaultConfig::always_lying_fsync());
}

/// The journal's reason to exist: a kill between checkpoints resumes
/// through replay (journal_replayed > 0) and the result is bit-identical
/// to a run that was never interrupted.
#[test]
fn journal_replay_resumes_bit_identical_to_uninterrupted_twin() {
    let dir = temp_dir("twin");
    let trace = write_temp_trace(&dir, 4_000);

    let reference = run(&SupervisorConfig::new(&trace, BackendKind::Hybrid)).expect("reference");
    assert!(
        reference.events > 3_000,
        "trace must outlive the kill point"
    );

    let ckpt_dir = dir.join("ckpts");
    let mut cfg = SupervisorConfig::new(&trace, BackendKind::Hybrid);
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    cfg.checkpoint_every = 512;
    cfg.journal_flush_every = 64;
    cfg.kill_after = Some(3_000);
    let killed = run(&cfg).expect("killed run");
    assert!(killed.killed);
    assert!(
        killed.journal_appended > 0,
        "the gap past the checkpoint must be journaled"
    );

    let mut cfg2 = SupervisorConfig::new(&trace, BackendKind::Hybrid);
    cfg2.checkpoint_dir = Some(ckpt_dir);
    cfg2.checkpoint_every = 512;
    cfg2.journal_flush_every = 64;
    cfg2.resume = Resume::Auto;
    let resumed = run(&cfg2).expect("resume");
    assert!(
        resumed.journal_replayed > 0,
        "resume must advance through journal replay, not checkpoint alone"
    );
    assert_eq!(resumed.events, reference.events);
    assert_stats_eq(&resumed.stats, &reference.stats);
    fs::remove_dir_all(&dir).ok();
}

/// Damages the live journal's tail with `mutate` after a kill, then
/// proves resume drops the damage (never trusts it, never dies on it)
/// and still lands bit-identical to the uninterrupted reference.
fn torn_tail_case(tag: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
    let dir = temp_dir(tag);
    let trace = write_temp_trace(&dir, 4_000);
    let reference = run(&SupervisorConfig::new(&trace, BackendKind::Hybrid)).expect("reference");

    let ckpt_dir = dir.join("ckpts");
    let mut cfg = SupervisorConfig::new(&trace, BackendKind::Hybrid);
    cfg.checkpoint_dir = Some(ckpt_dir.clone());
    cfg.checkpoint_every = 512;
    cfg.journal_flush_every = 64;
    cfg.kill_after = Some(3_000);
    assert!(run(&cfg).expect("killed run").killed);

    let journals = list_journals_with(&RealVfs, &ckpt_dir).expect("list journals");
    let (_, live) = journals.last().expect("a live journal exists").clone();
    let mut bytes = fs::read(&live).expect("read journal");
    let before = bytes.len();
    mutate(&mut bytes);
    fs::write(&live, &bytes).expect("write damaged journal");

    let mut cfg2 = SupervisorConfig::new(&trace, BackendKind::Hybrid);
    cfg2.checkpoint_dir = Some(ckpt_dir);
    cfg2.checkpoint_every = 512;
    cfg2.journal_flush_every = 64;
    cfg2.resume = Resume::Auto;
    let resumed = run(&cfg2).expect("a damaged journal tail must not be fatal");
    assert_eq!(resumed.events, reference.events);
    assert_stats_eq(&resumed.stats, &reference.stats);

    // Replay rewrote the journal down to its clean prefix before the
    // resumed run restarted it; either way nothing larger than the
    // damaged file should have been trusted.
    assert!(before > 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_journal_tail_is_dropped_not_fatal() {
    // A crash mid-append: the last frame is cut short.
    torn_tail_case("torn-cut", |bytes| {
        let cut = bytes.len().saturating_sub(5);
        bytes.truncate(cut);
    });
}

#[test]
fn bit_flipped_journal_record_is_dropped_not_fatal() {
    // Bitrot in the middle of the record stream: CRC catches it and the
    // valid prefix before the flip is all that replays.
    torn_tail_case("torn-flip", |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
    });
}
