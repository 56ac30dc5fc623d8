//! Crash-consistent checkpoint files.
//!
//! A checkpoint is a [`cap_snapshot`] archive persisted under a
//! predictable name, `ckpt-{events:012}.capsnap`, so lexicographic order
//! *is* chronological order. Between checkpoints, the supervisor may
//! append a delta journal, `journal-{events:012}.capj`, holding the
//! events applied since the checkpoint with the same number (see
//! `cap_snapshot::journal`). Three disciplines make the directory safe to
//! crash into at any instruction:
//!
//! 1. **Atomic publication** — [`write_checkpoint`] writes to a `.tmp`
//!    sibling, `fsync`s it, and only then `rename`s it into place. A crash
//!    mid-write leaves a `.tmp` orphan, never a half-written `.capsnap`.
//! 2. **Bounded retention** — [`rotate_checkpoints`] prunes everything but
//!    the newest `keep` files after each successful write. Pruning is
//!    best-effort per file (one sticky EPERM must not make retention
//!    unbounded) and makes the deletions durable with a directory sync.
//!    Journals whose base checkpoint has rotated away go with it.
//! 3. **Skeptical recovery** — [`recover_latest`] walks newest-first,
//!    *parses* each candidate before trusting it (a torn or corrupted file
//!    fails its CRC and is deleted), sweeps up `.tmp` orphans, and drops
//!    journals whose base is newer than the checkpoint it chose.
//!
//! Every disk touch goes through a [`Vfs`] — the `_with` variants accept
//! any implementation (the chaos suite passes
//! [`cap_faults::fs::ChaosVfs`]); the plain-named wrappers bind
//! [`RealVfs`]. This module performs **no** direct `std::fs` calls;
//! the root `tests/repo_invariants.rs` keeps it that way.

use crate::names;
use cap_faults::fs::{RealVfs, Vfs};
use cap_obs::Obs;
use cap_snapshot::SnapshotArchive;
use std::io;
use std::path::{Path, PathBuf};

/// Extension of a published checkpoint file.
pub const CHECKPOINT_EXT: &str = "capsnap";

/// Extension of a delta-journal file.
pub const JOURNAL_EXT: &str = "capj";

const PREFIX: &str = "ckpt-";
const JOURNAL_PREFIX: &str = "journal-";
const TMP_SUFFIX: &str = ".tmp";

/// The canonical file name for a checkpoint taken after `events` trace
/// events: zero-padded so lexicographic order matches event order.
#[must_use]
pub fn checkpoint_file_name(events: u64) -> String {
    format!("{PREFIX}{events:012}.{CHECKPOINT_EXT}")
}

/// Parses `ckpt-000000001234.capsnap` back to `1234`; `None` for anything
/// that is not a published checkpoint name.
#[must_use]
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    parse_numbered(name, PREFIX, CHECKPOINT_EXT)
}

/// The canonical file name for the delta journal applying on top of the
/// checkpoint taken at `events` (`0` = a fresh, cold state).
#[must_use]
pub fn journal_file_name(events: u64) -> String {
    format!("{JOURNAL_PREFIX}{events:012}.{JOURNAL_EXT}")
}

/// Parses `journal-000000001234.capj` back to `1234`; `None` for anything
/// that is not a journal name.
#[must_use]
pub fn parse_journal_name(name: &str) -> Option<u64> {
    parse_numbered(name, JOURNAL_PREFIX, JOURNAL_EXT)
}

fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(&format!(".{ext}"))?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Directory-fsync that is best-effort but *accounted*: not every
/// filesystem supports opening a directory for sync, so the failure is
/// non-fatal, but a durability gap must never be silent — it increments
/// `harness.ckpt.dir_sync_failed` and emits a structured log line.
pub(crate) fn sync_dir_observed(vfs: &dyn Vfs, dir: &Path, obs: &Obs) {
    if let Err(e) = vfs.sync_dir(dir) {
        obs.incr(names::CKPT_DIR_SYNC_FAILED);
        if obs.enabled() {
            eprintln!(
                "{{\"event\":\"{}\",\"dir\":{:?},\"error\":{:?}}}",
                names::CKPT_DIR_SYNC_FAILED,
                dir.display().to_string(),
                e.to_string()
            );
        }
    }
}

/// [`write_checkpoint`] through an explicit [`Vfs`].
///
/// # Errors
///
/// Propagates the underlying filesystem failures; on error the final path
/// is untouched (at worst a `.tmp` orphan remains, which
/// [`recover_latest`] sweeps up). A failed *directory* sync after the
/// rename is not an error — it is counted and logged via `obs` (see
/// `sync_dir_observed`'s rationale in the source).
pub fn write_checkpoint_with(
    vfs: &dyn Vfs,
    dir: &Path,
    events: u64,
    bytes: &[u8],
    obs: &Obs,
) -> io::Result<PathBuf> {
    vfs.create_dir_all(dir)?;
    let final_path = dir.join(checkpoint_file_name(events));
    let tmp_path = dir.join(format!("{}{TMP_SUFFIX}", checkpoint_file_name(events)));
    vfs.write_file(&tmp_path, bytes)?;
    vfs.sync_file(&tmp_path)?;
    vfs.rename(&tmp_path, &final_path)?;
    // Publishing the rename durably needs a directory fsync.
    sync_dir_observed(vfs, dir, obs);
    Ok(final_path)
}

/// Atomically publishes `bytes` as the checkpoint for `events`: write to a
/// `.tmp` sibling, `sync_all`, then `rename` into place. Creates `dir` if
/// needed.
///
/// # Errors
///
/// As [`write_checkpoint_with`], which this calls with [`RealVfs`] and
/// disabled observability.
pub fn write_checkpoint(dir: &Path, events: u64, bytes: &[u8]) -> io::Result<PathBuf> {
    write_checkpoint_with(&RealVfs, dir, events, bytes, &Obs::off())
}

fn list_numbered_with(
    vfs: &dyn Vfs,
    dir: &Path,
    parse: fn(&str) -> Option<u64>,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    let names = match vfs.read_dir(dir) {
        Ok(n) => n,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e),
    };
    for name in names {
        if let Some(events) = parse(&name) {
            found.push((events, dir.join(name)));
        }
    }
    found.sort();
    Ok(found)
}

/// [`list_checkpoints`] through an explicit [`Vfs`].
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_checkpoints_with(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered_with(vfs, dir, parse_checkpoint_name)
}

/// All published checkpoints in `dir`, oldest first, as
/// `(events, path)` pairs. A missing directory is just empty.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_checkpoints_with(&RealVfs, dir)
}

/// All delta journals in `dir`, oldest first, as `(base_events, path)`
/// pairs. A missing directory is just empty.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_journals_with(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered_with(vfs, dir, parse_journal_name)
}

/// What [`rotate_checkpoints`] accomplished. Rotation is best-effort per
/// file: one undeletable file must not abort retention of the rest, so
/// the outcome is *both* what was removed and the first failure.
#[derive(Debug, Default)]
#[must_use]
pub struct Rotation {
    /// Checkpoints actually deleted, oldest first.
    pub removed: Vec<PathBuf>,
    /// Journals deleted because their base checkpoint is older than the
    /// oldest checkpoint still present.
    pub removed_journals: Vec<PathBuf>,
    /// The first per-file deletion failure, if any (later files were
    /// still attempted).
    pub first_error: Option<io::Error>,
}

/// [`rotate_checkpoints`] through an explicit [`Vfs`].
///
/// # Errors
///
/// Only a failed directory *listing* is an error (rotation cannot know
/// what to do). Per-file deletion failures are reported in
/// [`Rotation::first_error`] while the remaining files are still
/// attempted.
pub fn rotate_checkpoints_with(
    vfs: &dyn Vfs,
    dir: &Path,
    keep: usize,
    obs: &Obs,
) -> io::Result<Rotation> {
    let all = list_checkpoints_with(vfs, dir)?;
    let keep = keep.max(1);
    let excess = all.len().saturating_sub(keep);
    let mut rotation = Rotation::default();
    let mut oldest_present: Option<u64> = all.get(excess).map(|&(events, _)| events);
    for (events, path) in all.iter().take(excess) {
        match vfs.remove_file(path) {
            Ok(()) => rotation.removed.push(path.clone()),
            Err(e) => {
                // The file survives: journals down to its base stay live.
                let floor = oldest_present.get_or_insert(*events);
                *floor = (*floor).min(*events);
                if rotation.first_error.is_none() {
                    rotation.first_error = Some(e);
                }
            }
        }
    }
    // A journal is only replayable on top of its base checkpoint; once the
    // base is gone the journal is dead weight (and `journal-0`, based on
    // the cold state, dies as soon as any real checkpoint survives it).
    if let Some(floor) = oldest_present {
        for (base, path) in list_journals_with(vfs, dir)? {
            if base >= floor {
                break; // oldest-first: the rest are all live
            }
            match vfs.remove_file(&path) {
                Ok(()) => rotation.removed_journals.push(path),
                Err(e) => {
                    if rotation.first_error.is_none() {
                        rotation.first_error = Some(e);
                    }
                }
            }
        }
    }
    // Deletions are namespace edits too: without a directory sync a crash
    // resurrects the removed files and retention silently un-bounds.
    if !rotation.removed.is_empty() || !rotation.removed_journals.is_empty() {
        sync_dir_observed(vfs, dir, obs);
    }
    Ok(rotation)
}

/// Deletes all but the newest `keep` checkpoints (and any delta journals
/// whose base checkpoint is gone); returns what was removed alongside the
/// first per-file failure. `keep == 0` is treated as 1 (the newest always
/// survives).
///
/// # Errors
///
/// As [`rotate_checkpoints_with`], which this calls with [`RealVfs`] and
/// disabled observability.
pub fn rotate_checkpoints(dir: &Path, keep: usize) -> io::Result<Rotation> {
    rotate_checkpoints_with(&RealVfs, dir, keep, &Obs::off())
}

/// What [`recover_latest`] found.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest checkpoint that parses as a valid snapshot archive, with
    /// its bytes — `None` when no valid checkpoint exists.
    pub chosen: Option<(PathBuf, Vec<u8>)>,
    /// Files swept up during recovery: `.tmp` orphans from interrupted
    /// writes, published checkpoints newer than `chosen` that failed
    /// to parse (torn, truncated, or corrupted), and journals whose base
    /// is newer than `chosen` (their base state no longer exists).
    pub removed: Vec<PathBuf>,
}

impl Recovery {
    /// Event count of the chosen checkpoint (`0` when none was found —
    /// the cold state).
    #[must_use]
    pub fn chosen_events(&self) -> u64 {
        self.chosen
            .as_ref()
            .and_then(|(path, _)| path.file_name()?.to_str())
            .and_then(parse_checkpoint_name)
            .unwrap_or(0)
    }
}

/// [`recover_latest`] through an explicit [`Vfs`].
///
/// # Errors
///
/// Propagates directory-read and candidate-read failures. Parse failures
/// are part of normal recovery, not errors, and sweep deletions are
/// best-effort — an undeletable orphan is skipped (and retried by the
/// next recovery), never allowed to block choosing a checkpoint.
pub fn recover_latest_with(vfs: &dyn Vfs, dir: &Path) -> io::Result<Recovery> {
    let mut recovery = Recovery::default();
    let entries = match vfs.read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(recovery),
        Err(e) => return Err(e),
    };
    for name in entries {
        let is_tmp = name.starts_with(PREFIX) && name.ends_with(TMP_SUFFIX);
        if is_tmp && vfs.remove_file(&dir.join(&name)).is_ok() {
            recovery.removed.push(dir.join(&name));
        }
    }
    let mut candidates = list_checkpoints_with(vfs, dir)?;
    candidates.reverse(); // newest first
    for (_, path) in candidates {
        let bytes = vfs.read(&path)?;
        if SnapshotArchive::parse(&bytes).is_ok() {
            recovery.chosen = Some((path, bytes));
            break;
        }
        if vfs.remove_file(&path).is_ok() {
            recovery.removed.push(path);
        }
    }
    // A journal based on a checkpoint newer than the one chosen has no
    // state to replay on top of; sweep it before it can shadow the next
    // journal written at that same event count.
    let floor = recovery.chosen_events();
    for (base, path) in list_journals_with(vfs, dir)? {
        if base > floor && vfs.remove_file(&path).is_ok() {
            recovery.removed.push(path);
        }
    }
    Ok(recovery)
}

/// Picks the newest *valid* checkpoint in `dir`, cleaning up the debris a
/// crash can leave behind: `.tmp` orphans are deleted, any checkpoint
/// newer than the chosen one that fails [`SnapshotArchive`] validation
/// (zero-length file, torn write, bit rot) is deleted, and journals with
/// no surviving base checkpoint are deleted. Older checkpoints are left
/// for [`rotate_checkpoints`].
///
/// # Errors
///
/// As [`recover_latest_with`], which this calls with [`RealVfs`].
pub fn recover_latest(dir: &Path) -> io::Result<Recovery> {
    recover_latest_with(&RealVfs, dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_and_sort_chronologically() {
        assert_eq!(checkpoint_file_name(42), "ckpt-000000000042.capsnap");
        assert_eq!(parse_checkpoint_name("ckpt-000000000042.capsnap"), Some(42));
        assert_eq!(parse_checkpoint_name("ckpt-42.capsnap"), None);
        assert_eq!(parse_checkpoint_name("ckpt-000000000042.capsnap.tmp"), None);
        assert_eq!(parse_checkpoint_name("other.capsnap"), None);
        assert!(checkpoint_file_name(999) < checkpoint_file_name(1_000));
    }

    #[test]
    fn journal_names_roundtrip_and_never_cross_parse() {
        assert_eq!(journal_file_name(42), "journal-000000000042.capj");
        assert_eq!(parse_journal_name("journal-000000000042.capj"), Some(42));
        assert_eq!(parse_journal_name("journal-42.capj"), None);
        assert_eq!(parse_journal_name("ckpt-000000000042.capsnap"), None);
        assert_eq!(parse_checkpoint_name("journal-000000000042.capj"), None);
        assert!(journal_file_name(999) < journal_file_name(1_000));
    }
}
