//! Checkpoint-directory robustness: rotation keeps exactly the newest K,
//! and recovery survives every kind of debris a crash can leave behind —
//! leftover `.tmp` files, zero-length checkpoints, torn writes — picking
//! the newest *valid* checkpoint and sweeping the wreckage up.

use cap_faults::fs::{ChaosVfs, FsFaultConfig, Vfs};
use cap_harness::checkpoint::{
    checkpoint_file_name, journal_file_name, list_checkpoints, list_checkpoints_with,
    recover_latest, recover_latest_with, rotate_checkpoints, rotate_checkpoints_with,
    write_checkpoint, write_checkpoint_with,
};
use cap_obs::Obs;
use cap_snapshot::{encode_journal_header, SnapshotBuilder};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cap-checkpoint-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A minimal but *valid* snapshot archive whose payload encodes `n`.
fn valid_archive(n: u64) -> Vec<u8> {
    let mut b = SnapshotBuilder::new();
    b.add_raw("payload", n.to_le_bytes().to_vec());
    b.finish()
}

#[test]
fn write_is_atomic_and_leaves_no_tmp_behind() {
    let dir = temp_dir("atomic");
    let path = write_checkpoint(&dir, 42, &valid_archive(42)).expect("writes");
    assert_eq!(path.file_name().unwrap(), "ckpt-000000000042.capsnap");
    let names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["ckpt-000000000042.capsnap".to_owned()]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_keeps_exactly_the_newest_k() {
    let dir = temp_dir("rotate");
    for events in [100u64, 200, 300, 400, 500] {
        write_checkpoint(&dir, events, &valid_archive(events)).expect("writes");
    }
    let removed = rotate_checkpoints(&dir, 2).expect("rotates");
    assert_eq!(removed.removed.len(), 3);
    let remaining: Vec<u64> = list_checkpoints(&dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![400, 500]);

    // keep = 0 still preserves the newest.
    let _ = rotate_checkpoints(&dir, 0).expect("rotates");
    let remaining: Vec<u64> = list_checkpoints(&dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![500]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_picks_newest_valid_and_sweeps_the_debris() {
    let dir = temp_dir("recover");
    // Two good checkpoints...
    write_checkpoint(&dir, 1_000, &valid_archive(1)).expect("writes");
    write_checkpoint(&dir, 2_000, &valid_archive(2)).expect("writes");
    // ...then the crash: a zero-length published file, a torn (truncated)
    // newest checkpoint, and a leftover .tmp from an interrupted write.
    fs::write(dir.join(checkpoint_file_name(3_000)), b"").expect("zero-length");
    let torn = &valid_archive(4)[..10];
    fs::write(dir.join(checkpoint_file_name(4_000)), torn).expect("torn");
    fs::write(
        dir.join(format!("{}.tmp", checkpoint_file_name(5_000))),
        b"half-written",
    )
    .expect("tmp orphan");

    let recovery = recover_latest(&dir).expect("recovers");
    let (chosen, bytes) = recovery.chosen.expect("a valid checkpoint exists");
    assert_eq!(
        chosen.file_name().unwrap(),
        checkpoint_file_name(2_000).as_str()
    );
    assert_eq!(bytes, valid_archive(2));

    // The zero-length file, the torn file, and the tmp orphan are gone;
    // the older valid checkpoint is left for rotation.
    assert_eq!(recovery.removed.len(), 3);
    let remaining: Vec<u64> = list_checkpoints(&dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![1_000, 2_000]);
    assert!(!dir
        .join(format!("{}.tmp", checkpoint_file_name(5_000)))
        .exists());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_of_an_empty_or_missing_directory_is_clean() {
    let dir = temp_dir("empty");
    let recovery = recover_latest(&dir).expect("empty dir recovers");
    assert!(recovery.chosen.is_none());
    assert!(recovery.removed.is_empty());

    let missing = dir.join("never-created");
    let recovery = recover_latest(&missing).expect("missing dir recovers");
    assert!(recovery.chosen.is_none());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_with_only_invalid_checkpoints_reports_none_and_cleans_all() {
    let dir = temp_dir("all-bad");
    fs::write(dir.join(checkpoint_file_name(10)), b"").expect("zero-length");
    fs::write(dir.join(checkpoint_file_name(20)), b"not a snapshot").expect("garbage");
    let recovery = recover_latest(&dir).expect("recovers");
    assert!(recovery.chosen.is_none());
    assert_eq!(recovery.removed.len(), 2);
    assert!(list_checkpoints(&dir).unwrap().is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn rotation_at_the_keep_one_boundary() {
    let dir = temp_dir("keep-one");

    // Rotating an empty directory with keep = 1 is a no-op, not an error.
    assert!(rotate_checkpoints(&dir, 1)
        .expect("empty rotates")
        .removed
        .is_empty());

    // A single checkpoint at keep = 1 sits exactly on the boundary:
    // nothing may be removed.
    write_checkpoint(&dir, 100, &valid_archive(100)).expect("writes");
    assert!(rotate_checkpoints(&dir, 1)
        .expect("rotates")
        .removed
        .is_empty());
    assert_eq!(list_checkpoints(&dir).unwrap().len(), 1);

    // Each additional write followed by keep = 1 rotation removes exactly
    // the previous survivor — the steady-state of a running service.
    for events in [200u64, 300, 400] {
        write_checkpoint(&dir, events, &valid_archive(events)).expect("writes");
        let removed = rotate_checkpoints(&dir, 1).expect("rotates");
        assert_eq!(
            removed.removed.len(),
            1,
            "exactly the displaced checkpoint goes"
        );
        let remaining: Vec<u64> = list_checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(remaining, vec![events]);
    }

    // The survivor is still a valid recovery source.
    let recovery = recover_latest(&dir).expect("recovers");
    let (chosen, _) = recovery.chosen.expect("survivor is recoverable");
    assert_eq!(
        chosen.file_name().unwrap(),
        checkpoint_file_name(400).as_str()
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_corrupt_checkpoints_yield_a_cold_service_not_an_error() {
    use cap_service::prelude::*;
    use std::time::Duration;

    let dir = temp_dir("all-corrupt-service");
    // Every checkpoint on disk is damaged in a different way: empty,
    // garbage, a torn prefix of a real archive, and a real service
    // snapshot with a flipped bit.
    fs::write(dir.join(checkpoint_file_name(10)), b"").expect("empty");
    fs::write(
        dir.join(checkpoint_file_name(20)),
        b"definitely not a snapshot",
    )
    .expect("garbage");
    fs::write(dir.join(checkpoint_file_name(30)), &valid_archive(30)[..9]).expect("torn");
    let mut flipped = {
        let service = Service::start(ServiceConfig::default());
        service.shutdown(Duration::from_millis(200)).snapshot
    };
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    fs::write(dir.join(checkpoint_file_name(40)), &flipped).expect("bit-rotted");

    // Recovery must not error; the CRC-failing candidates are swept and
    // nothing survives to restore from.
    let recovery = recover_latest(&dir).expect("recovery is not an error");
    assert!(
        recovery.chosen.is_none(),
        "no corrupt checkpoint is trusted"
    );
    assert_eq!(recovery.removed.len(), 4);

    // The serve path degrades to a cold start and the service works.
    let snapshot_bytes = recovery.chosen.as_ref().map(|(_, b)| b.as_slice());
    let (service, warm) = Service::restore_or_cold(ServiceConfig::default(), snapshot_bytes);
    assert!(!warm, "nothing valid on disk means a cold start");
    let handle = service.handle();
    for i in 0..32u64 {
        let response = handle
            .call(
                Request::Observe {
                    ip: 0x42,
                    offset: 0,
                    ghr: 0,
                    actual: 0x1000 + i * 8,
                },
                None,
            )
            .expect("cold service serves");
        assert!(matches!(response, Response::Observed { .. }));
    }
    let stats = service.handle().stats().expect("stats");
    assert_eq!(stats.merged_predictor().loads, 32);
    let report = service.shutdown(Duration::from_secs(1));
    assert_eq!(report.drain_rejected, 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn tmp_orphan_numerically_newest_is_swept_never_chosen() {
    let dir = temp_dir("tmp-newest");
    write_checkpoint(&dir, 100, &valid_archive(100)).expect("writes");
    write_checkpoint(&dir, 200, &valid_archive(200)).expect("writes");
    // The orphan parses as event 900 — newer than every published
    // checkpoint — and even holds a perfectly valid archive. It was
    // never renamed into place, so it must be swept, not trusted: an
    // interrupted publish is not a publish.
    let orphan = dir.join(format!("{}.tmp", checkpoint_file_name(900)));
    fs::write(&orphan, valid_archive(900)).expect("tmp orphan");

    let recovery = recover_latest(&dir).expect("recovers");
    let (chosen, bytes) = recovery.chosen.expect("published checkpoint wins");
    assert_eq!(
        chosen.file_name().unwrap(),
        checkpoint_file_name(200).as_str()
    );
    assert_eq!(bytes, valid_archive(200));
    assert!(recovery.removed.contains(&orphan));
    assert!(!orphan.exists());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_rotation_leaves_a_recoverable_directory() {
    let vfs = ChaosVfs::new(11, FsFaultConfig::off());
    let dir = Path::new("/v/mid-rotation");
    let obs = Obs::off();
    for events in [100u64, 200, 300, 400, 500] {
        write_checkpoint_with(&vfs, dir, events, &valid_archive(events), &obs).expect("writes");
    }

    // keep = 2 wants 100, 200, 300 gone. Crash right after the second
    // removal — before the directory sync that would make any removal
    // durable — so the reboot resurrects every file: retention is
    // un-done, but nothing is half-deleted and nothing valid is lost.
    let c = vfs.op_count();
    vfs.set_crash_after(c + 3); // +1 list, +2 remove(100), +3 remove(200)
    let _ = rotate_checkpoints_with(&vfs, dir, 2, &obs);
    vfs.reboot();

    let recovery = recover_latest_with(&vfs, dir).expect("recovers after the crash");
    let (chosen, bytes) = recovery.chosen.expect("newest checkpoint survived");
    assert_eq!(
        chosen.file_name().unwrap(),
        checkpoint_file_name(500).as_str()
    );
    assert_eq!(bytes, valid_archive(500));

    // The next rotation finishes what the crashed one started.
    let rotation = rotate_checkpoints_with(&vfs, dir, 2, &obs).expect("rotates");
    assert!(rotation.first_error.is_none());
    let remaining: Vec<u64> = list_checkpoints_with(&vfs, dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![400, 500]);
}

#[test]
fn sticky_undeletable_checkpoint_does_not_abort_rotation() {
    let vfs = ChaosVfs::new(12, FsFaultConfig::off());
    let dir = Path::new("/v/sticky");
    let obs = Obs::off();
    for events in [100u64, 200, 300] {
        write_checkpoint_with(&vfs, dir, events, &valid_archive(events), &obs).expect("writes");
    }
    // A journal based on checkpoint 100: prunable only once its base is
    // actually gone.
    let journal = dir.join(journal_file_name(100));
    vfs.write_file(&journal, &encode_journal_header(100))
        .expect("journal");
    vfs.sync_file(&journal).expect("sync");
    vfs.sync_dir(dir).expect("sync dir");

    let sticky = dir.join(checkpoint_file_name(100));
    vfs.deny_remove(&sticky);
    let rotation = rotate_checkpoints_with(&vfs, dir, 1, &obs).expect("listing still works");
    // Best-effort: the failure is reported, the *other* excess file
    // still went, and the journal stays because its base survived.
    assert!(rotation.first_error.is_some());
    assert_eq!(rotation.removed, vec![dir.join(checkpoint_file_name(200))]);
    assert!(rotation.removed_journals.is_empty());
    let remaining: Vec<u64> = list_checkpoints_with(&vfs, dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![100, 300]);

    // Once the denial lifts, the next rotation sweeps the stragglers —
    // the sticky checkpoint and the journal whose base then vanishes.
    vfs.allow_remove(&sticky);
    let rotation = rotate_checkpoints_with(&vfs, dir, 1, &obs).expect("rotates");
    assert!(rotation.first_error.is_none());
    assert_eq!(rotation.removed, vec![sticky]);
    assert_eq!(rotation.removed_journals, vec![journal]);
    let remaining: Vec<u64> = list_checkpoints_with(&vfs, dir)
        .unwrap()
        .into_iter()
        .map(|(e, _)| e)
        .collect();
    assert_eq!(remaining, vec![300]);
}

#[test]
fn foreign_files_are_never_touched() {
    let dir = temp_dir("foreign");
    fs::write(dir.join("notes.txt"), b"keep me").expect("write");
    fs::write(dir.join("ckpt-12.capsnap"), b"wrong digit count").expect("write");
    write_checkpoint(&dir, 7, &valid_archive(7)).expect("writes");

    let _ = rotate_checkpoints(&dir, 1).expect("rotates");
    let recovery = recover_latest(&dir).expect("recovers");
    assert!(recovery.chosen.is_some());
    assert!(dir.join("notes.txt").exists());
    assert!(
        dir.join("ckpt-12.capsnap").exists(),
        "non-canonical names are ignored"
    );
    fs::remove_dir_all(&dir).ok();
}
