//! The supervised resumable runner.
//!
//! [`run`] drives one predictor over one trace file event-by-event
//! (through [`cap_trace::cursor::TraceCursor`]), periodically publishing
//! crash-consistent checkpoints (see [`crate::checkpoint`]) that capture
//! *everything* the run depends on — predictor tables, control-flow state,
//! statistics, the supervisor's PRNG, and the exact byte position in the
//! trace — so a run killed at an arbitrary event and resumed from its
//! latest checkpoint finishes with **bit-identical** final metrics.
//!
//! Between checkpoints the supervisor can append a **delta journal**
//! (`journal_flush_every` > 0): every applied event is framed as a CRC'd
//! record (see [`cap_snapshot::journal`]) and fsync'd every
//! `journal_flush_every` events, shrinking the recovery loss bound from
//! the checkpoint interval to the flush interval. On resume the journal
//! of the chosen checkpoint is replayed through the same per-event step
//! function as the live loop — including the chaos stream, which draws
//! from the checkpointed PRNG — so a journal-replayed run stays
//! bit-identical to an uninterrupted twin.
//!
//! The supervisor also owns the operational concerns around that loop:
//! retry-with-backoff on transient trace I/O ([`with_retry`]), optional
//! chaos injection into the live predictor (`chaos_every`, drawing from
//! the checkpointed PRNG so even chaotic runs resume deterministically),
//! and a `kill_after` self-destruct used by the differential
//! kill-and-resume tests. Every durability-layer disk touch goes
//! through the [`Vfs`] in [`SupervisorConfig::vfs`], so the storage
//! chaos suite can intercept each one.

use crate::checkpoint::{
    journal_file_name, recover_latest_with, rotate_checkpoints_with, write_checkpoint_with,
};
use crate::names;
use cap_faults::fs::{RealVfs, Vfs};
use cap_faults::plan::FaultPlan;
use cap_predictor::drive::ControlState;
use cap_predictor::metrics::PredictorStats;
use cap_predictor::types::LoadContext;
use cap_obs::{Classify, ErrorClass, Obs};
use cap_rand::{rngs::StdRng, SeedableRng};
use cap_service::backend::{Backend, BackendKind};
use cap_snapshot::{
    crc32, encode_journal_header, encode_journal_record,
    journal::{JOURNAL_HEADER_LEN, JOURNAL_RECORD_OVERHEAD},
    JournalReplay, SectionReader, SectionWriter, SnapshotArchive, SnapshotBuilder, SnapshotError,
};
use cap_trace::cursor::{CursorPos, TraceCursor};
use cap_trace::io::{event_line, parse_event_line, ParseTraceError};
use cap_trace::TraceEvent;
use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// The old name of `BackendKind`, kept only because perfbench's
// `durable.rs` still imports it; ROADMAP item 1 switches perfbench and
// deletes this line.
pub use cap_service::backend::BackendKind as PredictorKind;

/// Identity of a trace file — length plus a CRC of its head — recorded in
/// every checkpoint so a resume against the wrong (or rewritten) trace is
/// refused instead of silently producing garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceId {
    /// Total file length in bytes.
    pub len: u64,
    /// CRC-32 of the first 4 KiB (or the whole file if shorter).
    pub head_crc: u32,
}

/// Computes the [`TraceId`] of a trace file.
///
/// # Errors
///
/// Propagates open/read failures.
pub fn trace_identity(path: &Path) -> io::Result<TraceId> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    let mut head = vec![0u8; 4096.min(len) as usize];
    f.read_exact(&mut head)?;
    Ok(TraceId {
        len,
        head_crc: crc32(&head),
    })
}

/// Retry schedule for transient I/O: `attempts` tries total, sleeping
/// `base_delay * 2^i` between try `i` and try `i+1`, and never spending
/// more than `max_elapsed` wall-clock on the whole loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1) before the last error is surfaced.
    pub attempts: u32,
    /// Backoff base; doubles after every failed attempt.
    pub base_delay: Duration,
    /// Total-elapsed deadline across all attempts and backoff sleeps.
    /// The loop never *starts* a sleep that would cross this line, so a
    /// generous `attempts` cannot quietly turn into an unbounded stall
    /// (exponential backoff reaches minutes by attempt ten). `None`
    /// bounds the loop by attempt count alone.
    pub max_elapsed: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(5),
            max_elapsed: Some(Duration::from_secs(30)),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt + 1` (0-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_delay * 2u32.saturating_pow(attempt.min(16))
    }
}

/// How a [`with_retry`] loop ultimately failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RetryError<E> {
    /// Attempts ran out, or the error was not transient: the last
    /// error, unchanged.
    Exhausted(E),
    /// The total-elapsed deadline would have been crossed before the
    /// next attempt; retrying stopped with time still charged to the
    /// attempts made.
    TimedOut {
        /// Wall-clock spent in the loop when it gave up.
        elapsed: Duration,
        /// Attempts actually made.
        attempts: u32,
        /// The last error observed.
        last: E,
    },
}

impl<E: fmt::Display> fmt::Display for RetryError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryError::Exhausted(e) => write!(f, "retries exhausted: {e}"),
            RetryError::TimedOut {
                elapsed,
                attempts,
                last,
            } => write!(
                f,
                "retry deadline exceeded after {attempts} attempts in {elapsed:.3?}: {last}"
            ),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for RetryError<E> {}

/// A retry wrapper fails the way its final underlying error fails —
/// hitting the elapsed deadline doesn't change what kept going wrong.
impl<E: Classify> Classify for RetryError<E> {
    fn error_class(&self) -> ErrorClass {
        match self {
            RetryError::Exhausted(e) => e.error_class(),
            RetryError::TimedOut { last, .. } => last.error_class(),
        }
    }
}

/// Runs `op` under `policy`, retrying (with exponential backoff) only
/// while `is_transient` says the error is worth retrying, and only while
/// the policy's total-elapsed deadline holds.
///
/// # Errors
///
/// [`RetryError::Exhausted`] with the last error once attempts run out
/// or the error is not transient; [`RetryError::TimedOut`] when the
/// next backoff sleep would cross `max_elapsed`.
pub fn with_retry<T, E, F, P>(
    policy: &RetryPolicy,
    is_transient: P,
    mut op: F,
) -> Result<T, RetryError<E>>
where
    F: FnMut() -> Result<T, E>,
    P: Fn(&E) -> bool,
{
    let start = std::time::Instant::now();
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt + 1 < policy.attempts.max(1) && is_transient(&e) => {
                let sleep = policy.backoff(attempt);
                if let Some(limit) = policy.max_elapsed {
                    let elapsed = start.elapsed();
                    if elapsed + sleep > limit {
                        return Err(RetryError::TimedOut {
                            elapsed,
                            attempts: attempt + 1,
                            last: e,
                        });
                    }
                }
                std::thread::sleep(sleep);
                attempt += 1;
            }
            Err(e) => return Err(RetryError::Exhausted(e)),
        }
    }
}

/// [`with_retry`], but counts the *extra* attempts (re-tries beyond the
/// first call) into [`names::RETRY_ATTEMPTS`]. First tries are free —
/// the counter stays untouched on the happy path, so a healthy run
/// shows no retry activity at all.
fn with_retry_observed<T, E, F, P>(
    obs: &Obs,
    policy: &RetryPolicy,
    is_transient: P,
    mut op: F,
) -> Result<T, RetryError<E>>
where
    F: FnMut() -> Result<T, E>,
    P: Fn(&E) -> bool,
{
    let mut calls = 0u64;
    let result = with_retry(policy, is_transient, || {
        calls += 1;
        op()
    });
    if calls > 1 {
        obs.count(names::RETRY_ATTEMPTS, calls - 1);
    }
    result
}

/// How (and whether) a run resumes from a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resume {
    /// Start fresh, ignoring any checkpoints on disk.
    No,
    /// Recover the newest valid checkpoint in the checkpoint directory
    /// (fresh start if there is none).
    Auto,
    /// Resume from this specific checkpoint file.
    From(PathBuf),
}

/// Everything the supervisor needs for one run.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The trace file to drive.
    pub trace: PathBuf,
    /// Which registered backend to run.
    pub kind: BackendKind,
    /// Seed for the supervisor's PRNG (chaos stream).
    pub seed: u64,
    /// Where checkpoints live; `None` disables checkpointing and `Auto`
    /// resume.
    pub checkpoint_dir: Option<PathBuf>,
    /// Publish a checkpoint every this many trace events (0 = never).
    pub checkpoint_every: u64,
    /// Append-and-fsync the delta journal every this many trace events
    /// (0 = no journal). Requires a checkpoint directory; shrinks the
    /// recovery loss bound from `checkpoint_every` to this interval.
    pub journal_flush_every: u64,
    /// How many checkpoints to retain after rotation.
    pub keep: usize,
    /// Resume mode.
    pub resume: Resume,
    /// Abort (cleanly, from the caller's perspective — the CLI turns this
    /// into a hard `exit`) after this many trace events, simulating a
    /// crash for the differential tests.
    pub kill_after: Option<u64>,
    /// Inject one planned fault into the live predictor every this many
    /// trace events (0 = never). Draws from the checkpointed PRNG.
    pub chaos_every: u64,
    /// Retry schedule for transient trace/checkpoint I/O.
    pub retry: RetryPolicy,
    /// Telemetry handle; the supervisor records checkpoint
    /// encode/decode timings, checkpoints written, retry attempts, and
    /// the predictor's hit/miss counters through it. Never captured in
    /// checkpoints — resumed runs use whatever the resuming config
    /// carries. Defaults to off ([`Obs::off`]), which costs one branch
    /// per record site.
    pub obs: Obs,
    /// The filesystem every checkpoint/journal disk touch goes through.
    /// Defaults to the passthrough [`RealVfs`]; the storage chaos suite
    /// passes a [`cap_faults::fs::ChaosVfs`] to intercept each
    /// operation. Trace *reads* are not routed here — the trace is the
    /// run's immutable input, not state this layer is responsible for
    /// keeping durable.
    pub vfs: Arc<dyn Vfs>,
}

impl SupervisorConfig {
    /// A minimal config: no checkpoints, no chaos, no kill.
    #[must_use]
    pub fn new(trace: impl Into<PathBuf>, kind: BackendKind) -> Self {
        Self {
            trace: trace.into(),
            kind,
            seed: 0x0CA9_5EED,
            checkpoint_dir: None,
            checkpoint_every: 0,
            journal_flush_every: 0,
            keep: 3,
            resume: Resume::No,
            kill_after: None,
            chaos_every: 0,
            retry: RetryPolicy::default(),
            obs: Obs::off(),
            vfs: Arc::new(RealVfs),
        }
    }
}

/// What a supervised run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final prediction statistics.
    pub stats: PredictorStats,
    /// Trace events consumed in total (including the pre-resume prefix).
    pub events: u64,
    /// Checkpoints published by *this* process.
    pub checkpoints_written: u64,
    /// The checkpoint this run resumed from, if any.
    pub resumed_from: Option<PathBuf>,
    /// Files recovery swept up (tmp orphans, invalid checkpoints).
    pub recovery_removed: Vec<PathBuf>,
    /// Faults chaos injection actually applied.
    pub faults_applied: u64,
    /// Delta-journal records this process appended *and* flushed (records
    /// still buffered at a kill are lost by design — that is the loss
    /// bound).
    pub journal_appended: u64,
    /// Delta-journal records replayed on resume to advance past the
    /// resumed checkpoint.
    pub journal_replayed: u64,
    /// True when the run stopped at `kill_after` rather than end of trace.
    pub killed: bool,
}

/// Everything that can go wrong in a supervised run.
#[derive(Debug)]
pub enum SupervisorError {
    /// Filesystem failure (trace open, checkpoint write, recovery).
    Io(io::Error),
    /// The trace stream failed to parse.
    Trace(ParseTraceError),
    /// A checkpoint failed to decode.
    Snapshot(SnapshotError),
    /// The checkpoint is valid but belongs to a different run (wrong
    /// predictor kind, seed, or trace identity) — or the config is
    /// self-contradictory.
    Mismatch(String),
    /// A transient-I/O retry loop hit its total-elapsed deadline
    /// ([`RetryPolicy::max_elapsed`]) while the underlying error kept
    /// recurring.
    RetryTimeout {
        /// Wall-clock spent retrying.
        elapsed: Duration,
        /// Attempts actually made.
        attempts: u32,
        /// The final underlying error.
        last: Box<SupervisorError>,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Io(e) => write!(f, "i/o error: {e}"),
            SupervisorError::Trace(e) => write!(f, "trace error: {e}"),
            SupervisorError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            SupervisorError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            SupervisorError::RetryTimeout {
                elapsed,
                attempts,
                last,
            } => write!(
                f,
                "gave up retrying after {attempts} attempts in {elapsed:.3?}: {last}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl Classify for SupervisorError {
    fn error_class(&self) -> ErrorClass {
        match self {
            // Filesystem weather: the retry loops already treat it as
            // worth retrying.
            SupervisorError::Io(_) => ErrorClass::Transient,
            // A trace that failed on I/O (retries exhausted) is still
            // environment weather; malformed trace bytes and
            // undecodable checkpoints fail the same way on every read.
            SupervisorError::Trace(ParseTraceError::Io(_)) => ErrorClass::Transient,
            SupervisorError::Trace(_) | SupervisorError::Snapshot(_) => ErrorClass::Corrupt,
            // A *valid* checkpoint for the wrong run: deterministic
            // operator error, not damage.
            SupervisorError::Mismatch(_) => ErrorClass::Permanent,
            // The deadline bounded a recurring transient; more time (or
            // a fixed disk) could still succeed.
            SupervisorError::RetryTimeout { .. } => ErrorClass::Transient,
        }
    }
}

impl From<io::Error> for SupervisorError {
    fn from(e: io::Error) -> Self {
        SupervisorError::Io(e)
    }
}

impl From<ParseTraceError> for SupervisorError {
    fn from(e: ParseTraceError) -> Self {
        SupervisorError::Trace(e)
    }
}

impl From<SnapshotError> for SupervisorError {
    fn from(e: SnapshotError) -> Self {
        SupervisorError::Snapshot(e)
    }
}

impl<E> From<RetryError<E>> for SupervisorError
where
    SupervisorError: From<E>,
{
    fn from(e: RetryError<E>) -> Self {
        match e {
            RetryError::Exhausted(e) => e.into(),
            RetryError::TimedOut {
                elapsed,
                attempts,
                last,
            } => SupervisorError::RetryTimeout {
                elapsed,
                attempts,
                last: Box::new(last.into()),
            },
        }
    }
}

/// The live state a checkpoint must capture exactly.
struct RunState {
    predictor: Box<dyn Backend>,
    control: ControlState,
    stats: PredictorStats,
    rng: StdRng,
    pos: CursorPos,
}

impl RunState {
    fn fresh(config: &SupervisorConfig) -> Self {
        Self {
            predictor: config.kind.build(),
            control: ControlState::default(),
            stats: PredictorStats::new(),
            rng: StdRng::seed_from_u64(config.seed),
            pos: CursorPos::default(),
        }
    }
}

/// Checkpoint layout version, the first field of the meta section. Layout
/// 1 had no version and numbered its predictor tags 0 = stride, 2 =
/// hybrid, the reverse of the registry's; its meta section is four bytes
/// shorter, so it never decodes as layout 2.
const CHECKPOINT_LAYOUT_VERSION: u32 = 2;

const SEC_META: &str = "meta";
const SEC_PREDICTOR: &str = "predictor";
const SEC_CONTROL: &str = "control";
const SEC_STATS: &str = "stats";
const SEC_RNG: &str = "rng";
const SEC_CURSOR: &str = "cursor";

/// Serializes a full checkpoint archive for the given live state.
fn encode_checkpoint(config: &SupervisorConfig, identity: TraceId, state: &RunState) -> Vec<u8> {
    let mut meta = SectionWriter::new();
    meta.put_u32(CHECKPOINT_LAYOUT_VERSION);
    meta.put_u8(config.kind.tag());
    meta.put_u64(config.seed);
    meta.put_u64(identity.len);
    meta.put_u32(identity.head_crc);

    let mut b = SnapshotBuilder::new();
    b.add_raw(SEC_META, meta.into_bytes());
    b.add(SEC_PREDICTOR, &*state.predictor);
    b.add(SEC_CONTROL, &state.control);
    b.add(SEC_STATS, &state.stats);
    b.add(SEC_RNG, &state.rng);
    b.add(SEC_CURSOR, &state.pos);
    b.finish()
}

/// Decodes a checkpoint archive, refusing one taken by a different run.
fn decode_checkpoint(
    bytes: &[u8],
    config: &SupervisorConfig,
    identity: TraceId,
) -> Result<RunState, SupervisorError> {
    let archive = SnapshotArchive::parse(bytes)?;
    let meta_bytes = archive.section(SEC_META)?;
    let mut meta = SectionReader::new(meta_bytes, SEC_META);
    let version = meta.take_u32("checkpoint layout version")?;
    if version != CHECKPOINT_LAYOUT_VERSION {
        return Err(meta
            .bad_value(format!(
                "checkpoint layout version {version}, supported {CHECKPOINT_LAYOUT_VERSION}"
            ))
            .into());
    }
    let tag = meta.take_u8("predictor kind tag")?;
    let kind = BackendKind::from_tag(tag)
        .ok_or_else(|| meta.bad_value(format!("unknown predictor kind tag {tag}")))?;
    let seed = meta.take_u64("supervisor seed")?;
    let len = meta.take_u64("trace length")?;
    let head_crc = meta.take_u32("trace head crc")?;
    meta.finish()?;

    if kind != config.kind {
        return Err(SupervisorError::Mismatch(format!(
            "checkpoint holds a {} predictor, run wants {}",
            kind.name(),
            config.kind.name()
        )));
    }
    if seed != config.seed {
        return Err(SupervisorError::Mismatch(format!(
            "checkpoint seed {seed:#x} != run seed {:#x}",
            config.seed
        )));
    }
    let ckpt_id = TraceId { len, head_crc };
    if ckpt_id != identity {
        return Err(SupervisorError::Mismatch(format!(
            "checkpoint was taken against a different trace \
             (len {len}, head crc {head_crc:#010x}; file has len {}, head crc {:#010x})",
            identity.len, identity.head_crc
        )));
    }

    let mut r = SectionReader::new(archive.section(SEC_PREDICTOR)?, SEC_PREDICTOR);
    let predictor = kind.restore(&mut r)?;
    r.finish()?;
    Ok(RunState {
        predictor,
        control: archive.restore(SEC_CONTROL)?,
        stats: archive.restore(SEC_STATS)?,
        rng: archive.restore(SEC_RNG)?,
        pos: archive.restore(SEC_CURSOR)?,
    })
}

/// [`decode_checkpoint`] with its wall-clock cost recorded into
/// [`names::CKPT_DECODE_US`] (timed only when telemetry is on, so the
/// disabled path never reads the clock).
fn decode_checkpoint_timed(
    bytes: &[u8],
    config: &SupervisorConfig,
    identity: TraceId,
) -> Result<RunState, SupervisorError> {
    let t0 = config.obs.enabled().then(std::time::Instant::now);
    let state = decode_checkpoint(bytes, config, identity)?;
    if let Some(t0) = t0 {
        config
            .obs
            .record(names::CKPT_DECODE_US, t0.elapsed().as_micros() as u64);
    }
    Ok(state)
}

/// Resolves the resume mode into an initial [`RunState`].
fn initial_state(
    config: &SupervisorConfig,
    identity: TraceId,
) -> Result<(RunState, Option<PathBuf>, Vec<PathBuf>), SupervisorError> {
    match &config.resume {
        Resume::No => Ok((RunState::fresh(config), None, Vec::new())),
        Resume::Auto => {
            let Some(dir) = &config.checkpoint_dir else {
                return Err(SupervisorError::Mismatch(
                    "resume=auto needs a checkpoint directory".to_owned(),
                ));
            };
            let recovery = recover_latest_with(config.vfs.as_ref(), dir)?;
            match recovery.chosen {
                Some((path, bytes)) => {
                    let state = decode_checkpoint_timed(&bytes, config, identity)?;
                    Ok((state, Some(path), recovery.removed))
                }
                None => Ok((RunState::fresh(config), None, recovery.removed)),
            }
        }
        Resume::From(path) => {
            let bytes = with_retry_observed(&config.obs, &config.retry, |_| true, || {
                config.vfs.read(path)
            })?;
            let state = decode_checkpoint_timed(&bytes, config, identity)?;
            Ok((state, Some(path.clone()), Vec::new()))
        }
    }
}

/// Applies one trace event to the live state — predictor step, control
/// update, stats, and the chaos tick. The **only** per-event step
/// function: the live loop and journal replay both route through it, so
/// a replayed event perturbs predictor tables, statistics, the RNG, and
/// the fault stream exactly as the original application did.
fn apply_event(
    state: &mut RunState,
    event: &TraceEvent,
    events: u64,
    config: &SupervisorConfig,
    chaos_plan: &FaultPlan,
    faults_applied: &mut u64,
) {
    match event {
        TraceEvent::Load(load) => {
            let ctx = LoadContext {
                ip: load.ip,
                offset: load.offset,
                ghr: state.control.ghr,
                path: state.control.path,
                pending: 0,
            };
            let pred = state.predictor.predict(&ctx);
            state.predictor.update(&ctx, load.addr, &pred);
            state.stats.record_with(&pred, load.addr, &config.obs);
        }
        TraceEvent::Branch(b) => state.control.on_branch(b.ip, b.taken, b.kind),
        TraceEvent::Store(_) | TraceEvent::Op(_) => {}
    }

    // Chaos strictly before checkpointing: the checkpoint then captures
    // the post-fault state and the advanced RNG, so resume replays the
    // remainder of the run exactly.
    if config.chaos_every > 0 && events.is_multiple_of(config.chaos_every) {
        let report = chaos_plan.inject_with(&mut *state.predictor, &mut state.rng);
        *faults_applied += report.applied as u64;
    }
}

const SEC_JOURNAL: &str = "journal";

/// One journal record: the cursor position *after* the event, plus the
/// event as its canonical trace line.
fn encode_journal_event(pos: CursorPos, event: &TraceEvent) -> Vec<u8> {
    let mut w = SectionWriter::new();
    w.put_u64(pos.byte_offset);
    w.put_u64(pos.line);
    w.put_u64(pos.events);
    let line = event_line(event);
    w.put_len(line.len());
    w.put_raw(line.as_bytes());
    encode_journal_record(&w.into_bytes())
}

fn decode_journal_event(payload: &[u8]) -> Result<(CursorPos, TraceEvent), SupervisorError> {
    let mut r = SectionReader::new(payload, SEC_JOURNAL);
    let pos = CursorPos {
        byte_offset: r.take_u64("journal byte offset")?,
        line: r.take_u64("journal line number")?,
        events: r.take_u64("journal event count")?,
    };
    let n = r.take_len(1, "journal event line length")?;
    let raw = r.take_raw(n, "journal event line")?;
    let text =
        std::str::from_utf8(raw).map_err(|_| r.bad_value("journal event line is not UTF-8"))?;
    r.finish()?;
    let event = parse_event_line(text, pos.line as usize)?;
    Ok((pos, event))
}

/// Creates (or truncates) the journal for checkpoint `base`: header
/// only, synced, with the new directory entry made durable.
fn init_journal(vfs: &dyn Vfs, dir: &Path, base: u64, obs: &Obs) -> io::Result<()> {
    vfs.create_dir_all(dir)?;
    let path = dir.join(journal_file_name(base));
    vfs.write_file(&path, &encode_journal_header(base))?;
    vfs.sync_file(&path)?;
    crate::checkpoint::sync_dir_observed(vfs, dir, obs);
    Ok(())
}

/// The supervisor's append side of the delta journal: records buffer in
/// memory and hit the disk (append + fsync) at each flush — the
/// recovery loss bound is exactly what this buffer holds when the
/// process dies.
struct JournalWriter {
    base: u64,
    pending: Vec<u8>,
    pending_records: u64,
    appended: u64,
}

impl JournalWriter {
    fn new(base: u64) -> Self {
        Self {
            base,
            pending: Vec::new(),
            pending_records: 0,
            appended: 0,
        }
    }

    fn buffer(&mut self, pos: CursorPos, event: &TraceEvent) {
        self.pending.extend_from_slice(&encode_journal_event(pos, event));
        self.pending_records += 1;
    }

    fn flush(&mut self, vfs: &dyn Vfs, dir: &Path, obs: &Obs) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let path = dir.join(journal_file_name(self.base));
        vfs.append_file(&path, &self.pending)?;
        vfs.sync_file(&path)?;
        self.appended += self.pending_records;
        obs.count(names::JOURNAL_APPENDED, self.pending_records);
        obs.incr(names::JOURNAL_FLUSHES);
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// A fresh checkpoint at `base` supersedes everything buffered:
    /// drop it and start the next journal file.
    fn restart(&mut self, vfs: &dyn Vfs, dir: &Path, base: u64, obs: &Obs) -> io::Result<()> {
        self.pending.clear();
        self.pending_records = 0;
        self.base = base;
        init_journal(vfs, dir, base, obs)
    }
}

/// Replays the delta journal of checkpoint `base` (if present) through
/// [`apply_event`], advancing `state` to the last journaled position,
/// and leaves a clean journal file behind — torn tails truncated,
/// missing or unusable files re-initialised — ready for appends.
fn replay_journal(
    vfs: &dyn Vfs,
    dir: &Path,
    base: u64,
    state: &mut RunState,
    config: &SupervisorConfig,
    chaos_plan: &FaultPlan,
    faults_applied: &mut u64,
) -> Result<u64, SupervisorError> {
    let path = dir.join(journal_file_name(base));
    let bytes = match vfs.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            init_journal(vfs, dir, base, &config.obs)?;
            return Ok(0);
        }
        Err(e) => return Err(e.into()),
    };
    let replay = match JournalReplay::parse(&bytes) {
        Ok(r) if r.base_events == base => r,
        // A damaged header, or a base contradicting the file name:
        // nothing in the file can be trusted. Start it over — the
        // checkpoint itself is intact, so this only widens the loss
        // window back to the checkpoint interval for this one resume.
        Ok(_) | Err(_) => {
            config.obs.incr(names::JOURNAL_TORN_TAILS);
            init_journal(vfs, dir, base, &config.obs)?;
            return Ok(0);
        }
    };
    let mut replayed = 0u64;
    let mut clean_len = JOURNAL_HEADER_LEN;
    for payload in &replay.records {
        match decode_journal_event(payload) {
            Ok((pos, event)) => {
                apply_event(state, &event, pos.events, config, chaos_plan, faults_applied);
                state.pos = pos;
                replayed += 1;
                clean_len += JOURNAL_RECORD_OVERHEAD + payload.len();
            }
            // A CRC-valid frame whose payload doesn't decode ends the
            // trusted prefix exactly like a CRC failure would.
            Err(_) => break,
        }
    }
    if replay.torn.is_some() || clean_len < replay.valid_len {
        // Truncate to the replayed prefix so appends resume on a clean
        // record boundary.
        config.obs.incr(names::JOURNAL_TORN_TAILS);
        vfs.write_file(&path, &bytes[..clean_len])?;
        vfs.sync_file(&path)?;
    }
    if replayed > 0 {
        config.obs.count(names::JOURNAL_REPLAYED, replayed);
    }
    Ok(replayed)
}

/// Drives one supervised, checkpointed, resumable run to completion (or
/// to `kill_after`).
///
/// # Errors
///
/// [`SupervisorError`] on unreadable traces, malformed trace lines,
/// undecodable or mismatched checkpoints, exhausted I/O retries, or a
/// failed journal flush.
pub fn run(config: &SupervisorConfig) -> Result<RunOutcome, SupervisorError> {
    let vfs = config.vfs.as_ref();
    let journaling = config.journal_flush_every > 0;
    if journaling && config.checkpoint_dir.is_none() {
        return Err(SupervisorError::Mismatch(
            "journal_flush_every needs a checkpoint directory".to_owned(),
        ));
    }
    let identity = with_retry_observed(&config.obs, &config.retry, |_| true, || {
        trace_identity(&config.trace)
    })?;
    let (mut state, resumed_from, recovery_removed) = initial_state(config, identity)?;

    // One planned fault per chaos tick, drawn from the checkpointed RNG so
    // a resumed chaotic run replays the exact fault stream of an
    // uninterrupted one.
    let chaos_plan = FaultPlan::new(config.seed, 1);
    let mut checkpoints_written = 0u64;
    let mut faults_applied = 0u64;
    let mut journal_replayed = 0u64;

    // The journal applies on top of the state's checkpoint — which is
    // exactly where the cursor stands right now (0 for a fresh run).
    let mut journal = JournalWriter::new(state.pos.events);
    if journaling {
        let dir = config.checkpoint_dir.as_deref().expect("checked above");
        if matches!(config.resume, Resume::No) {
            // A fresh run must not inherit a previous run's journal.
            init_journal(vfs, dir, journal.base, &config.obs)?;
        } else {
            journal_replayed = replay_journal(
                vfs,
                dir,
                journal.base,
                &mut state,
                config,
                &chaos_plan,
                &mut faults_applied,
            )?;
        }
    }

    let mut cursor = with_retry_observed(&config.obs, &config.retry, |_| true, || {
        TraceCursor::open_at(&config.trace, state.pos)
    })?;

    loop {
        let next = with_retry_observed(
            &config.obs,
            &config.retry,
            |e| matches!(e, ParseTraceError::Io(_)),
            || cursor.next_event(),
        )?;
        let Some(event) = next else { break };

        let pos = cursor.position();
        let events = pos.events;
        apply_event(&mut state, &event, events, config, &chaos_plan, &mut faults_applied);

        if journaling {
            journal.buffer(pos, &event);
            if events % config.journal_flush_every == 0 {
                let dir = config.checkpoint_dir.as_deref().expect("checked above");
                journal.flush(vfs, dir, &config.obs)?;
            }
        }

        if config.checkpoint_every > 0 && events % config.checkpoint_every == 0 {
            if let Some(dir) = &config.checkpoint_dir {
                state.pos = pos;
                let t0 = config.obs.enabled().then(std::time::Instant::now);
                let bytes = encode_checkpoint(config, identity, &state);
                if let Some(t0) = t0 {
                    config
                        .obs
                        .record(names::CKPT_ENCODE_US, t0.elapsed().as_micros() as u64);
                }
                with_retry_observed(&config.obs, &config.retry, |_| true, || {
                    write_checkpoint_with(vfs, dir, events, &bytes, &config.obs)
                })?;
                let rotation = rotate_checkpoints_with(vfs, dir, config.keep, &config.obs)?;
                if let Some(e) = &rotation.first_error {
                    config.obs.incr(names::CKPT_ROTATE_FAILED);
                    if config.obs.enabled() {
                        eprintln!(
                            "{{\"event\":\"{}\",\"removed\":{},\"error\":{:?}}}",
                            names::CKPT_ROTATE_FAILED,
                            rotation.removed.len(),
                            e.to_string()
                        );
                    }
                }
                checkpoints_written += 1;
                config.obs.incr(names::CKPT_WRITTEN);
                if journaling {
                    journal.restart(vfs, dir, events, &config.obs)?;
                }
            }
        }

        if config.kill_after == Some(events) {
            return Ok(RunOutcome {
                stats: state.stats,
                events,
                checkpoints_written,
                resumed_from,
                recovery_removed,
                faults_applied,
                journal_appended: journal.appended,
                journal_replayed,
                killed: true,
            });
        }
    }

    // A clean exit owes the journal its tail: flush what's buffered so a
    // later resume (against a grown trace, say) starts loss-free.
    if journaling {
        let dir = config.checkpoint_dir.as_deref().expect("checked above");
        journal.flush(vfs, dir, &config.obs)?;
    }

    Ok(RunOutcome {
        stats: state.stats,
        events: cursor.position().events,
        checkpoints_written,
        resumed_from,
        recovery_removed,
        faults_applied,
        journal_appended: journal.appended,
        journal_replayed,
        killed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_service::backend::BACKEND_REGISTRY;
    use cap_trace::io::write_trace;
    use cap_trace::suites::catalog;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cap-supervisor-{tag}-{}",
            std::process::id()
        ));
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

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let dir = temp_dir("resume");
        let trace = write_temp_trace(&dir, 6_000);

        for d in BACKEND_REGISTRY {
            // Reference: one uninterrupted run.
            let reference = run(&SupervisorConfig::new(&trace, d.kind)).unwrap();
            assert!(!reference.killed);
            assert!(reference.stats.loads > 0);

            // Killed run: checkpoints every 512 events, dies at 3_000.
            let ckpt_dir = dir.join(d.name);
            let mut cfg = SupervisorConfig::new(&trace, d.kind);
            cfg.checkpoint_dir = Some(ckpt_dir.clone());
            cfg.checkpoint_every = 512;
            cfg.kill_after = Some(3_000);
            let killed = run(&cfg).unwrap();
            assert!(killed.killed);
            assert!(killed.checkpoints_written > 0);

            // Resumed run: picks up the newest checkpoint, finishes the trace.
            let mut cfg2 = SupervisorConfig::new(&trace, d.kind);
            cfg2.checkpoint_dir = Some(ckpt_dir);
            cfg2.checkpoint_every = 512;
            cfg2.resume = Resume::Auto;
            let resumed = run(&cfg2).unwrap();
            assert!(resumed.resumed_from.is_some(), "{}", d.name);
            assert_eq!(resumed.events, reference.events);
            assert_stats_eq(&resumed.stats, &reference.stats);
        }

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaotic_kill_and_resume_is_bit_identical() {
        let dir = temp_dir("chaos-resume");
        let trace = write_temp_trace(&dir, 5_000);

        for d in BACKEND_REGISTRY {
            let mut base = SupervisorConfig::new(&trace, d.kind);
            base.chaos_every = 97;
            base.seed = 0xD1CE;
            let reference = run(&base).unwrap();
            assert!(reference.faults_applied > 0, "chaos must land on a warm {}", d.name);

            let ckpt_dir = dir.join(d.name);
            let mut cfg = base.clone();
            cfg.checkpoint_dir = Some(ckpt_dir.clone());
            cfg.checkpoint_every = 300;
            cfg.kill_after = Some(2_500);
            assert!(run(&cfg).unwrap().killed);

            let mut cfg2 = base.clone();
            cfg2.checkpoint_dir = Some(ckpt_dir);
            cfg2.resume = Resume::Auto;
            let resumed = run(&cfg2).unwrap();
            assert_stats_eq(&resumed.stats, &reference.stats);
            // The resumed run replays chaos from its checkpoint on,
            // overlapping the killed run, so the fault counts do not add
            // up; only the final state (bit-identical above) must match.
            assert!(resumed.faults_applied > 0, "{}", d.name);
        }

        fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint from before the layout version: meta held the
    /// supervisor's own tag (0 = stride, 1 = cap, 2 = hybrid) first, and
    /// the predictor section led with the same tag. Under the registry's
    /// tags an old stride checkpoint's 0 would name the hybrid, so every
    /// such archive must be refused, whatever the run asks for. Seeds 0
    /// and 2^24 make an old hybrid meta start with the bytes of version 2.
    #[test]
    fn checkpoints_without_a_layout_version_are_refused() {
        let identity = TraceId {
            len: 4_096,
            head_crc: 0xDEAD_BEEF,
        };
        let old_tags = [
            (0u8, BackendKind::Stride),
            (1, BackendKind::Cap),
            (2, BackendKind::Hybrid),
        ];
        for seed in [0, 0x0CA9_5EED, 1 << 24] {
            for (old_tag, old_kind) in old_tags {
                let mut config = SupervisorConfig::new("trace.txt", old_kind);
                config.seed = seed;
                let state = RunState::fresh(&config);

                let mut meta = SectionWriter::new();
                meta.put_u8(old_tag);
                meta.put_u64(seed);
                meta.put_u64(identity.len);
                meta.put_u32(identity.head_crc);
                let mut predictor = SectionWriter::new();
                predictor.put_u8(old_tag);
                state.predictor.write_state(&mut predictor);
                let mut b = SnapshotBuilder::new();
                b.add_raw(SEC_META, meta.into_bytes());
                b.add_raw(SEC_PREDICTOR, predictor.into_bytes());
                b.add(SEC_CONTROL, &state.control);
                b.add(SEC_STATS, &state.stats);
                b.add(SEC_RNG, &state.rng);
                b.add(SEC_CURSOR, &state.pos);
                let old = b.finish();

                // Today's layout of the same state decodes.
                let current = encode_checkpoint(&config, identity, &state);
                assert!(decode_checkpoint(&current, &config, identity).is_ok());

                for d in BACKEND_REGISTRY {
                    config.kind = d.kind;
                    // Refused in the meta section, before any predictor decodes.
                    match decode_checkpoint(&old, &config, identity) {
                        Err(SupervisorError::Snapshot(e)) if e.section() == Some(SEC_META) => {}
                        Err(e) => panic!("old tag {old_tag} at {seed:#x} as {}: {e}", d.name),
                        Ok(_) => panic!("old tag {old_tag} at {seed:#x} decoded as {}", d.name),
                    }
                }
            }
        }
    }

    #[test]
    fn resume_refuses_foreign_checkpoints() {
        let dir = temp_dir("mismatch");
        let trace = write_temp_trace(&dir, 2_000);
        let ckpt_dir = dir.join("ckpts");

        let mut cfg = SupervisorConfig::new(&trace, BackendKind::Hybrid);
        cfg.checkpoint_dir = Some(ckpt_dir.clone());
        cfg.checkpoint_every = 500;
        run(&cfg).unwrap();

        // Wrong predictor kind.
        let mut wrong_kind = SupervisorConfig::new(&trace, BackendKind::Stride);
        wrong_kind.checkpoint_dir = Some(ckpt_dir.clone());
        wrong_kind.resume = Resume::Auto;
        assert!(matches!(
            run(&wrong_kind).unwrap_err(),
            SupervisorError::Mismatch(_)
        ));

        // Wrong seed.
        let mut wrong_seed = SupervisorConfig::new(&trace, BackendKind::Hybrid);
        wrong_seed.checkpoint_dir = Some(ckpt_dir.clone());
        wrong_seed.resume = Resume::Auto;
        wrong_seed.seed = 1;
        assert!(matches!(
            run(&wrong_seed).unwrap_err(),
            SupervisorError::Mismatch(_)
        ));

        // Different trace content (same length class not required — the
        // head CRC changes).
        let other = dir.join("other-trace.txt");
        fs::write(&other, fs::read(&trace).unwrap().split_off(10)).unwrap();
        let mut wrong_trace = SupervisorConfig::new(&other, BackendKind::Hybrid);
        wrong_trace.checkpoint_dir = Some(ckpt_dir);
        wrong_trace.resume = Resume::Auto;
        assert!(matches!(
            run(&wrong_trace).unwrap_err(),
            SupervisorError::Mismatch(_)
        ));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_retry_respects_transience() {
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(0),
            max_elapsed: None,
        };
        let mut calls = 0;
        let result: Result<u32, _> = with_retry(&policy, |_| true, || {
            calls += 1;
            if calls < 3 { Err("transient") } else { Ok(7) }
        });
        assert_eq!(result, Ok(7));
        assert_eq!(calls, 3);

        let mut calls = 0;
        let result: Result<u32, _> = with_retry(&policy, |_| false, || {
            calls += 1;
            Err("fatal")
        });
        assert_eq!(result, Err(RetryError::Exhausted("fatal")));
        assert_eq!(calls, 1, "non-transient errors must not be retried");
    }

    #[test]
    fn with_retry_enforces_the_total_elapsed_deadline() {
        // Backoff doubles from 10ms; a 25ms budget admits the first
        // sleep (10ms) but never the second (20ms), so a permanently
        // failing op stops after two attempts — long before the 1000
        // the attempt budget would allow.
        let policy = RetryPolicy {
            attempts: 1_000,
            base_delay: Duration::from_millis(10),
            max_elapsed: Some(Duration::from_millis(25)),
        };
        let mut calls = 0u32;
        let start = std::time::Instant::now();
        let result: Result<u32, _> = with_retry(&policy, |_| true, || {
            calls += 1;
            Err("still down")
        });
        match result {
            Err(RetryError::TimedOut {
                elapsed,
                attempts,
                last,
            }) => {
                assert_eq!(last, "still down");
                assert_eq!(attempts, calls);
                assert!(attempts < 10, "deadline must beat the attempt budget");
                assert!(elapsed <= start.elapsed());
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "the loop returned promptly"
        );

        // The structured timeout converts into the supervisor's error
        // taxonomy with its accounting intact.
        let err: SupervisorError = RetryError::TimedOut {
            elapsed: Duration::from_millis(25),
            attempts: 2,
            last: io::Error::other("disk flaky"),
        }
        .into();
        match err {
            SupervisorError::RetryTimeout {
                attempts, last, ..
            } => {
                assert_eq!(attempts, 2);
                assert!(matches!(*last, SupervisorError::Io(_)));
            }
            other => panic!("expected RetryTimeout, got {other}"),
        }
    }

    #[test]
    fn telemetry_reconciles_with_the_run_outcome() {
        let dir = temp_dir("telemetry");
        let trace = write_temp_trace(&dir, 4_000);
        let ckpt_dir = dir.join("ckpts");

        // Uninterrupted instrumented run: the registry's pred.* counters
        // are views over the same arithmetic as PredictorStats.
        let registry = std::sync::Arc::new(cap_obs::Registry::new());
        let mut cfg = SupervisorConfig::new(&trace, BackendKind::Hybrid);
        cfg.checkpoint_dir = Some(ckpt_dir.clone());
        cfg.checkpoint_every = 512;
        cfg.obs = registry.obs();
        let outcome = run(&cfg).unwrap();
        assert!(outcome.checkpoints_written > 0);

        let snap = registry.snapshot();
        assert_stats_eq(&PredictorStats::from_obs_snapshot(&snap), &outcome.stats);
        assert_eq!(
            snap.counter(names::CKPT_WRITTEN),
            Some(outcome.checkpoints_written)
        );
        let encode = snap.histogram(names::CKPT_ENCODE_US).expect("encode histogram");
        assert_eq!(encode.count, outcome.checkpoints_written);
        assert!(snap.histogram(names::CKPT_DECODE_US).is_none(), "no resume, no decode");
        assert_eq!(snap.counter(names::RETRY_ATTEMPTS), None, "healthy I/O never re-tries");

        // A resume decodes exactly one checkpoint, timed.
        let resume_registry = std::sync::Arc::new(cap_obs::Registry::new());
        let mut cfg2 = cfg.clone();
        cfg2.resume = Resume::Auto;
        cfg2.obs = resume_registry.obs();
        let resumed = run(&cfg2).unwrap();
        assert!(resumed.resumed_from.is_some());
        let snap2 = resume_registry.snapshot();
        let decode = snap2.histogram(names::CKPT_DECODE_US).expect("decode histogram");
        assert_eq!(decode.count, 1);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervisor_errors_classify_coherently() {
        let io_err = SupervisorError::Io(io::Error::other("disk"));
        assert_eq!(io_err.error_class(), ErrorClass::Transient);
        assert_eq!(
            SupervisorError::Mismatch("foreign".into()).error_class(),
            ErrorClass::Permanent
        );
        let timeout = SupervisorError::RetryTimeout {
            elapsed: Duration::from_millis(25),
            attempts: 2,
            last: Box::new(SupervisorError::Io(io::Error::other("flaky"))),
        };
        assert!(timeout.error_class().is_retryable());

        // RetryError delegates to whatever kept failing underneath.
        let exhausted: RetryError<io::Error> = RetryError::Exhausted(io::Error::other("x"));
        assert_eq!(exhausted.error_class(), ErrorClass::Transient);
    }
}
