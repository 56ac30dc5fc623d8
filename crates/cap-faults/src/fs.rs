//! Storage chaos: an injectable virtual filesystem for the durability
//! layer.
//!
//! Every recovery story in this workspace — bit upsets absorbed by
//! confidence counters, hostile peers refused at the wire, partitions
//! healed by the router — ultimately leans on the checkpoint files the
//! harness writes to disk. This module puts that last layer behind a
//! seam: a [`Vfs`] trait covering exactly the operations the
//! checkpoint/journal code paths perform, with two implementations:
//!
//! * [`RealVfs`] — a passthrough to `std::fs`, used by production paths.
//!   It is the *only* place in the workspace where checkpoint/journal
//!   code is allowed to touch `std::fs` (the root
//!   `tests/repo_invariants.rs` scans for violations).
//! * [`ChaosVfs`] — a seeded, deterministic, fully in-memory disk with a
//!   **volatile/durable split**: writes land in a simulated page cache,
//!   and only a successful (non-lying) `sync_file`/`sync_dir` promotes
//!   content / directory entries to the durable view. A simulated crash
//!   ([`ChaosVfs::crash_now`] or [`ChaosVfs::set_crash_after`]) discards
//!   everything volatile — the adversarial model where nothing unsynced
//!   survives — which is what makes *fsync-lie* faults meaningful: the
//!   lie reports success, the buffered bytes are dropped at the next
//!   crash, and the published file comes back torn or stale.
//!
//! Fault kinds ([`FsFaultKind`]) follow the same seeded-probability
//! discipline as [`crate::net::NetFaultConfig`]: every draw is a pure
//! function of the VFS seed and the operation order, so a failing chaos
//! run replays from its seed alone.
//!
//! # The crash model
//!
//! * File **content** becomes durable only at a successful `sync_file`.
//! * Directory **entries** (creates, renames, removes) become durable
//!   only at a successful `sync_dir` on the parent.
//! * A crash reverts both views to their durable state. A file whose
//!   name was made durable but whose content never was comes back
//!   zero-length — exactly the torn-checkpoint shape `recover_latest`
//!   must sweep. A rename that was never followed by a directory sync
//!   comes back *undone* — the `.tmp` orphan reappears.
//! * Directory *creation* is durable immediately (directories here are
//!   long-lived fixtures; modelling their linkage adds states no test
//!   needs).

use cap_rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The filesystem surface of the checkpoint and journal code paths.
///
/// Deliberately whole-operation-grained (one call = one interceptable
/// disk touch) rather than handle-based: the crash-point matrix counts
/// these operations and simulates a crash after each index, so the
/// granularity of this trait *is* the granularity of the proof.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Creates (or truncates) `path` and writes `bytes` to it. The
    /// content is *not* durable until [`Vfs::sync_file`] succeeds.
    ///
    /// # Errors
    ///
    /// Short writes and ENOSPC surface here; a failed write may leave a
    /// partial file behind, exactly like `std::fs::write`.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating it if missing.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`Vfs::write_file`]; a failed append may
    /// leave a partial tail.
    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// `fsync`s `path`'s content.
    ///
    /// # Errors
    ///
    /// EIO on fsync surfaces here. A *lying* fsync (chaos only) returns
    /// `Ok` without making anything durable.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// `fsync`s the directory itself, making entry operations (create,
    /// rename, remove) durable.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure; callers on the
    /// checkpoint path treat this as best-effort but *count* it.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically renames `from` to `to`. Durable only after a
    /// subsequent [`Vfs::sync_dir`].
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes `path`.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure — including the
    /// sticky-EPERM file the rotation path must survive.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Reads `path` in full.
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure; chaos bit rot
    /// corrupts the returned bytes, not the stored file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Lists the file names in `dir` (names only, no paths; order
    /// unspecified, like `std::fs::read_dir`).
    ///
    /// # Errors
    ///
    /// Propagates (or injects) the underlying failure; chaos can omit
    /// entries from the listing.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// The passthrough [`Vfs`]: every call maps to one `std::fs` touch.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Not every filesystem supports opening a directory for sync;
        // the caller decides whether that failure is fatal.
        File::open(dir)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_owned());
            }
        }
        Ok(names)
    }
}

/// The classes of storage fault [`ChaosVfs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsFaultKind {
    /// A write stops partway through and errors (`WriteZero`), leaving a
    /// partial file or tail behind.
    ShortWrite,
    /// The disk fills mid-write (`StorageFull`), also leaving a partial
    /// file or tail behind.
    Enospc,
    /// `fsync` fails with EIO; nothing is promoted to durable.
    FsyncEio,
    /// `fsync` *reports success* but promotes nothing — the buffered
    /// bytes are dropped at the next simulated crash. The deadliest
    /// storage lie, because the caller proceeds as if durable.
    FsyncLie,
    /// `rename` fails; the namespace is unchanged.
    RenameFail,
    /// A read returns the stored bytes with one bit flipped (the stored
    /// file is untouched — transient medium error, not rot in place).
    ReadBitrot,
    /// A directory listing omits one entry.
    DirOmission,
}

impl FsFaultKind {
    /// Every fault class, for sweeps and reports.
    pub const ALL: [FsFaultKind; 7] = [
        FsFaultKind::ShortWrite,
        FsFaultKind::Enospc,
        FsFaultKind::FsyncEio,
        FsFaultKind::FsyncLie,
        FsFaultKind::RenameFail,
        FsFaultKind::ReadBitrot,
        FsFaultKind::DirOmission,
    ];

    /// Short lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FsFaultKind::ShortWrite => "short-write",
            FsFaultKind::Enospc => "enospc",
            FsFaultKind::FsyncEio => "fsync-eio",
            FsFaultKind::FsyncLie => "fsync-lie",
            FsFaultKind::RenameFail => "rename-fail",
            FsFaultKind::ReadBitrot => "read-bitrot",
            FsFaultKind::DirOmission => "dir-omission",
        }
    }
}

/// Per-operation fault probabilities. Each operation that a kind applies
/// to draws once, in declaration order; the first hit wins, so the sum
/// per operation should stay under 1.
#[derive(Debug, Clone, Copy)]
pub struct FsFaultConfig {
    /// Probability a write/append stops short with `WriteZero`.
    pub p_short_write: f64,
    /// Probability a write/append hits `StorageFull`.
    pub p_enospc: f64,
    /// Probability an fsync (file or dir) fails with EIO.
    pub p_fsync_eio: f64,
    /// Probability an fsync (file or dir) lies: `Ok`, nothing durable.
    pub p_fsync_lie: f64,
    /// Probability a rename fails.
    pub p_rename_fail: f64,
    /// Probability a read comes back with one flipped bit.
    pub p_read_bitrot: f64,
    /// Probability a directory listing omits one entry.
    pub p_dir_omission: f64,
}

impl FsFaultConfig {
    /// No faults at all — a perfectly honest in-memory disk (crashes
    /// still work; they are driven explicitly, not drawn).
    #[must_use]
    pub fn off() -> Self {
        Self {
            p_short_write: 0.0,
            p_enospc: 0.0,
            p_fsync_eio: 0.0,
            p_fsync_lie: 0.0,
            p_rename_fail: 0.0,
            p_read_bitrot: 0.0,
            p_dir_omission: 0.0,
        }
    }

    /// A lying disk: every fsync reports success and promotes nothing.
    #[must_use]
    pub fn always_lying_fsync() -> Self {
        Self {
            p_fsync_lie: 1.0,
            ..Self::off()
        }
    }

    /// Occasional faults of every kind — enough to exercise each error
    /// path in a soak without drowning the happy path.
    #[must_use]
    pub fn gentle() -> Self {
        Self {
            p_short_write: 0.02,
            p_enospc: 0.02,
            p_fsync_eio: 0.02,
            p_fsync_lie: 0.05,
            p_rename_fail: 0.02,
            p_read_bitrot: 0.02,
            p_dir_omission: 0.02,
        }
    }
}

/// What a [`ChaosVfs`] did so far.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsFaultStats {
    /// Total VFS operations performed (the crash-point index space).
    pub ops: u64,
    /// Simulated crashes taken.
    pub crashes: u64,
    /// Faults injected, per kind, in [`FsFaultKind::ALL`] order (kinds
    /// never injected are absent).
    pub by_kind: Vec<(FsFaultKind, u64)>,
}

impl FsFaultStats {
    fn record(&mut self, kind: FsFaultKind) {
        match self.by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => self.by_kind.push((kind, 1)),
        }
    }

    /// Injections of one kind.
    #[must_use]
    pub fn of_kind(&self, kind: FsFaultKind) -> u64 {
        self.by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, n)| *n)
    }

    /// Total injections across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.by_kind.iter().map(|(_, n)| n).sum()
    }
}

/// One file's content, volatile vs durable.
#[derive(Debug, Default)]
struct Inode {
    /// What a running process sees (the simulated page cache).
    volatile: Vec<u8>,
    /// What survives a crash: the content at the last successful
    /// (non-lying) `sync_file`. `None` = never synced — the file comes
    /// back zero-length if its directory entry was durable.
    durable: Option<Vec<u8>>,
}

/// One directory's entries (name → inode index), volatile vs durable.
#[derive(Debug, Default)]
struct DirState {
    volatile: BTreeMap<String, usize>,
    durable: BTreeMap<String, usize>,
}

#[derive(Debug)]
struct ChaosState {
    rng: StdRng,
    config: FsFaultConfig,
    dirs: BTreeMap<PathBuf, DirState>,
    inodes: Vec<Inode>,
    stats: FsFaultStats,
    crash_after: Option<u64>,
    crashed: bool,
    denied_removes: BTreeSet<PathBuf>,
}

impl ChaosState {
    fn draw(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p.min(1.0))
    }

    fn crash(&mut self) {
        self.crashed = true;
        self.stats.crashes += 1;
        for dir in self.dirs.values_mut() {
            dir.volatile = dir.durable.clone();
        }
        for inode in &mut self.inodes {
            inode.volatile = inode.durable.clone().unwrap_or_default();
        }
    }

    /// Splits a path into its (existing) parent directory and file name.
    fn locate<'s>(
        dirs: &'s mut BTreeMap<PathBuf, DirState>,
        path: &Path,
    ) -> io::Result<(&'s mut DirState, String)> {
        let parent = path.parent().unwrap_or_else(|| Path::new("")).to_path_buf();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
            .to_owned();
        let dir = dirs.get_mut(&parent).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such directory: {}", parent.display()),
            )
        })?;
        Ok((dir, name))
    }
}

/// A seeded, deterministic, in-memory chaos filesystem. Cheap to clone
/// (shared state behind an `Arc`), so the same "disk" can be handed to a
/// run, crashed, rebooted, and handed to the resumed run.
#[derive(Debug, Clone)]
pub struct ChaosVfs {
    state: Arc<Mutex<ChaosState>>,
}

impl ChaosVfs {
    /// A fresh empty disk drawing faults from `config` on the stream
    /// seeded by `seed`.
    #[must_use]
    pub fn new(seed: u64, config: FsFaultConfig) -> Self {
        Self {
            state: Arc::new(Mutex::new(ChaosState {
                rng: StdRng::seed_from_u64(seed),
                config,
                dirs: BTreeMap::new(),
                inodes: Vec::new(),
                stats: FsFaultStats::default(),
                crash_after: None,
                crashed: false,
                denied_removes: BTreeSet::new(),
            })),
        }
    }

    /// Operations performed so far — the index space of the crash-point
    /// matrix.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.state.lock().expect("vfs lock").stats.ops
    }

    /// A snapshot of the fault/operation accounting.
    #[must_use]
    pub fn stats(&self) -> FsFaultStats {
        self.state.lock().expect("vfs lock").stats.clone()
    }

    /// Arms a simulated crash immediately *after* operation number `n`
    /// (1-based) completes: that operation returns normally, everything
    /// volatile is dropped, and every later operation fails until
    /// [`ChaosVfs::reboot`].
    pub fn set_crash_after(&self, n: u64) {
        self.state.lock().expect("vfs lock").crash_after = Some(n);
    }

    /// Crashes right now: drops all volatile state; later operations
    /// fail until [`ChaosVfs::reboot`].
    pub fn crash_now(&self) {
        self.state.lock().expect("vfs lock").crash();
    }

    /// Clears the crashed flag (and any armed crash point): the "disk"
    /// comes back holding exactly its durable state.
    pub fn reboot(&self) {
        let mut s = self.state.lock().expect("vfs lock");
        s.crashed = false;
        s.crash_after = None;
    }

    /// Makes every `remove_file(path)` fail with `PermissionDenied` —
    /// the sticky-EPERM file the rotation path must survive.
    pub fn deny_remove(&self, path: &Path) {
        self.state
            .lock()
            .expect("vfs lock")
            .denied_removes
            .insert(path.to_path_buf());
    }

    /// Lifts a [`ChaosVfs::deny_remove`].
    pub fn allow_remove(&self, path: &Path) {
        self.state
            .lock()
            .expect("vfs lock")
            .denied_removes
            .remove(path);
    }

    /// The volatile content of `path`, if it exists — test introspection
    /// that does not count as an operation or draw a fault.
    #[must_use]
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        let mut s = self.state.lock().expect("vfs lock");
        let (dir, name) = ChaosState::locate(&mut s.dirs, path).ok()?;
        let ino = *dir.volatile.get(&name)?;
        Some(s.inodes[ino].volatile.clone())
    }

    fn op<T>(&self, f: impl FnOnce(&mut ChaosState) -> io::Result<T>) -> io::Result<T> {
        let mut s = self.state.lock().expect("vfs lock");
        if s.crashed {
            return Err(io::Error::other("simulated crash: machine is down"));
        }
        s.stats.ops += 1;
        let result = f(&mut s);
        if s.crash_after.is_some_and(|n| s.stats.ops >= n) {
            s.crash();
        }
        result
    }
}

/// Writes `bytes` into the inode for `path` (creating it), applying
/// short-write/ENOSPC draws. `keep_prefix` is what survives of any
/// existing content (0 for truncating writes, current length for
/// appends).
fn chaos_write(s: &mut ChaosState, path: &Path, bytes: &[u8], truncate: bool) -> io::Result<()> {
    // Draw write faults *before* borrowing the directory, so the RNG
    // stream depends only on operation order.
    let short = s.draw(s.config.p_short_write);
    let enospc = !short && s.draw(s.config.p_enospc);
    let cut = if short || enospc {
        s.rng.gen_range(0..=bytes.len() as u64) as usize
    } else {
        bytes.len()
    };
    let (dir, name) = ChaosState::locate(&mut s.dirs, path)?;
    let ino = match dir.volatile.get(&name) {
        Some(&ino) => ino,
        None => {
            s.inodes.push(Inode::default());
            let ino = s.inodes.len() - 1;
            dir.volatile.insert(name, ino);
            ino
        }
    };
    let inode = &mut s.inodes[ino];
    if truncate {
        inode.volatile.clear();
    }
    inode.volatile.extend_from_slice(&bytes[..cut]);
    if short {
        s.stats.record(FsFaultKind::ShortWrite);
        return Err(io::Error::new(
            io::ErrorKind::WriteZero,
            format!("injected short write ({cut} of {} bytes)", bytes.len()),
        ));
    }
    if enospc {
        s.stats.record(FsFaultKind::Enospc);
        return Err(io::Error::new(
            io::ErrorKind::StorageFull,
            format!("injected ENOSPC ({cut} of {} bytes)", bytes.len()),
        ));
    }
    Ok(())
}

impl Vfs for ChaosVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.op(|s| {
            // Directory creation is durable immediately (see module docs).
            s.dirs.entry(dir.to_path_buf()).or_default();
            Ok(())
        })
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op(|s| chaos_write(s, path, bytes, true))
    }

    fn append_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.op(|s| chaos_write(s, path, bytes, false))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.op(|s| {
            if s.draw(s.config.p_fsync_eio) {
                s.stats.record(FsFaultKind::FsyncEio);
                return Err(io::Error::other("injected EIO on fsync"));
            }
            let lie = s.draw(s.config.p_fsync_lie);
            let (dir, name) = ChaosState::locate(&mut s.dirs, path)?;
            let ino = *dir.volatile.get(&name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {}", path.display()),
                )
            })?;
            if lie {
                s.stats.record(FsFaultKind::FsyncLie);
                return Ok(()); // reports success, promotes nothing
            }
            let inode = &mut s.inodes[ino];
            inode.durable = Some(inode.volatile.clone());
            Ok(())
        })
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.op(|s| {
            if s.draw(s.config.p_fsync_eio) {
                s.stats.record(FsFaultKind::FsyncEio);
                return Err(io::Error::other("injected EIO on directory fsync"));
            }
            let lie = s.draw(s.config.p_fsync_lie);
            let state = s.dirs.get_mut(dir).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such directory: {}", dir.display()),
                )
            })?;
            if lie {
                s.stats.record(FsFaultKind::FsyncLie);
                return Ok(());
            }
            state.durable = state.volatile.clone();
            Ok(())
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.op(|s| {
            if s.draw(s.config.p_rename_fail) {
                s.stats.record(FsFaultKind::RenameFail);
                return Err(io::Error::other("injected rename failure"));
            }
            let (from_dir, from_name) = ChaosState::locate(&mut s.dirs, from)?;
            let ino = from_dir.volatile.remove(&from_name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {}", from.display()),
                )
            })?;
            let (to_dir, to_name) = ChaosState::locate(&mut s.dirs, to)?;
            to_dir.volatile.insert(to_name, ino);
            Ok(())
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.op(|s| {
            if s.denied_removes.contains(path) {
                return Err(io::Error::new(
                    io::ErrorKind::PermissionDenied,
                    format!("injected sticky EPERM: {}", path.display()),
                ));
            }
            let (dir, name) = ChaosState::locate(&mut s.dirs, path)?;
            dir.volatile.remove(&name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {}", path.display()),
                )
            })?;
            Ok(())
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.op(|s| {
            let rot = s.draw(s.config.p_read_bitrot);
            let (dir, name) = ChaosState::locate(&mut s.dirs, path)?;
            let ino = *dir.volatile.get(&name).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {}", path.display()),
                )
            })?;
            let mut bytes = s.inodes[ino].volatile.clone();
            if rot && !bytes.is_empty() {
                let byte = s.rng.gen_range(0..bytes.len() as u64) as usize;
                let bit = s.rng.gen_range(0..8u32) as u8;
                bytes[byte] ^= 1 << bit;
                s.stats.record(FsFaultKind::ReadBitrot);
            }
            Ok(bytes)
        })
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.op(|s| {
            let omit = s.draw(s.config.p_dir_omission);
            let state = s.dirs.get(dir).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such directory: {}", dir.display()),
                )
            })?;
            let mut names: Vec<String> = state.volatile.keys().cloned().collect();
            if omit && !names.is_empty() {
                let victim = s.rng.gen_range(0..names.len() as u64) as usize;
                names.remove(victim);
                s.stats.record(FsFaultKind::DirOmission);
            }
            Ok(names)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn honest() -> ChaosVfs {
        ChaosVfs::new(7, FsFaultConfig::off())
    }

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_sync_read_roundtrips() {
        let vfs = honest();
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/a"), b"hello").unwrap();
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"hello");
        vfs.append_file(&p("/d/a"), b" world").unwrap();
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"hello world");
        assert_eq!(vfs.read_dir(&p("/d")).unwrap(), vec!["a".to_owned()]);
        assert!(vfs.read(&p("/d/missing")).is_err());
        assert!(vfs.read_dir(&p("/nope")).is_err());
    }

    #[test]
    fn crash_drops_everything_unsynced() {
        let vfs = honest();
        vfs.create_dir_all(&p("/d")).unwrap();
        // Fully durable file: content synced, entry synced.
        vfs.write_file(&p("/d/safe"), b"synced").unwrap();
        vfs.sync_file(&p("/d/safe")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        // Content updated but never re-synced.
        vfs.write_file(&p("/d/safe"), b"newer, volatile").unwrap();
        // A file whose entry was never made durable.
        vfs.write_file(&p("/d/ghost"), b"gone").unwrap();
        vfs.sync_file(&p("/d/ghost")).unwrap();

        vfs.crash_now();
        assert!(vfs.read(&p("/d/safe")).is_err(), "down until reboot");
        vfs.reboot();
        assert_eq!(vfs.read(&p("/d/safe")).unwrap(), b"synced");
        assert!(
            vfs.read(&p("/d/ghost")).is_err(),
            "entry never durable: the file is gone"
        );
        assert_eq!(vfs.read_dir(&p("/d")).unwrap(), vec!["safe".to_owned()]);
    }

    #[test]
    fn crash_between_rename_and_dir_sync_undoes_the_rename() {
        let vfs = honest();
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/x.tmp"), b"payload").unwrap();
        vfs.sync_file(&p("/d/x.tmp")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.rename(&p("/d/x.tmp"), &p("/d/x")).unwrap();
        // No directory sync: the rename is volatile.
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(vfs.read(&p("/d/x.tmp")).unwrap(), b"payload");
        assert!(vfs.read(&p("/d/x")).is_err(), "rename reverted");

        // Redo with the sync: the rename survives.
        vfs.rename(&p("/d/x.tmp"), &p("/d/x")).unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        vfs.crash_now();
        vfs.reboot();
        assert!(vfs.read(&p("/d/x.tmp")).is_err());
        assert_eq!(vfs.read(&p("/d/x")).unwrap(), b"payload");
    }

    #[test]
    fn fsync_lie_reports_success_but_drops_bytes_at_the_crash() {
        let vfs = ChaosVfs::new(3, FsFaultConfig::always_lying_fsync());
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/a"), b"precious").unwrap();
        assert!(
            vfs.sync_file(&p("/d/a")).is_ok(),
            "the lie looks like success"
        );
        assert!(vfs.sync_dir(&p("/d")).is_ok());
        assert!(vfs.stats().of_kind(FsFaultKind::FsyncLie) >= 2);
        vfs.crash_now();
        vfs.reboot();
        assert!(
            vfs.read(&p("/d/a")).is_err(),
            "nothing was ever durable despite every sync reporting Ok"
        );
    }

    #[test]
    fn durable_name_with_unsynced_content_comes_back_zero_length() {
        let vfs = honest();
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/torn"), b"content that never hit the platter")
            .unwrap();
        vfs.sync_dir(&p("/d")).unwrap(); // entry durable, content not
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(
            vfs.read(&p("/d/torn")).unwrap(),
            b"",
            "the torn-checkpoint shape: file exists, content empty"
        );
    }

    #[test]
    fn crash_after_op_k_completes_op_k_then_fails_the_rest() {
        let vfs = honest();
        vfs.set_crash_after(3);
        vfs.create_dir_all(&p("/d")).unwrap(); // op 1
        vfs.write_file(&p("/d/a"), b"x").unwrap(); // op 2
        vfs.sync_file(&p("/d/a")).unwrap(); // op 3 — completes, then crash
        assert!(
            vfs.sync_dir(&p("/d")).is_err(),
            "op 4 finds the machine down"
        );
        assert_eq!(vfs.stats().crashes, 1);
        vfs.reboot();
        // Content was synced (op 3) but the entry never was: file gone.
        assert!(vfs.read(&p("/d/a")).is_err());
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let run = |seed: u64| {
            let vfs = ChaosVfs::new(seed, FsFaultConfig::gentle());
            vfs.create_dir_all(&p("/d")).unwrap();
            let mut outcomes: Vec<u64> = Vec::new();
            for i in 0..200u32 {
                let path = p(&format!("/d/f{}", i % 10));
                outcomes.push(u64::from(vfs.write_file(&path, b"abcdef").is_ok()));
                outcomes.push(u64::from(vfs.sync_file(&path).is_ok()));
                outcomes.push(vfs.read(&path).map(|b| b.len() as u64).unwrap_or(u64::MAX));
                outcomes.push(vfs.read_dir(&p("/d")).map(|n| n.len() as u64).unwrap_or(0));
            }
            (outcomes, vfs.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.total() > 0, "gentle config must actually inject");
        let (c, sc) = run(43);
        assert!(a != c || sa != sc, "different seeds must diverge");
    }

    #[test]
    fn read_bitrot_is_transient_not_rot_in_place() {
        let vfs = ChaosVfs::new(
            11,
            FsFaultConfig {
                p_read_bitrot: 1.0,
                ..FsFaultConfig::off()
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/a"), b"abcd").unwrap();
        let rotten = vfs.read(&p("/d/a")).unwrap();
        assert_ne!(rotten, b"abcd");
        // One bit differs, and the stored bytes are untouched.
        let diff: u32 = rotten
            .iter()
            .zip(b"abcd")
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff, 1);
        assert_eq!(vfs.peek(&p("/d/a")).unwrap(), b"abcd");
    }

    #[test]
    fn dir_omission_hides_exactly_one_entry() {
        let vfs = ChaosVfs::new(
            13,
            FsFaultConfig {
                p_dir_omission: 1.0,
                ..FsFaultConfig::off()
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        for name in ["a", "b", "c"] {
            vfs.write_file(&p(&format!("/d/{name}")), b"x").unwrap();
        }
        let listed = vfs.read_dir(&p("/d")).unwrap();
        assert_eq!(listed.len(), 2);
    }

    #[test]
    fn sticky_eperm_denies_removal_until_lifted() {
        let vfs = honest();
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write_file(&p("/d/sticky"), b"x").unwrap();
        vfs.deny_remove(&p("/d/sticky"));
        let err = vfs.remove_file(&p("/d/sticky")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        vfs.allow_remove(&p("/d/sticky"));
        vfs.remove_file(&p("/d/sticky")).unwrap();
    }

    #[test]
    fn short_write_and_enospc_leave_partial_files() {
        let vfs = ChaosVfs::new(
            17,
            FsFaultConfig {
                p_short_write: 1.0,
                ..FsFaultConfig::off()
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let payload = vec![0xAB; 1024];
        let err = vfs.write_file(&p("/d/a"), &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let partial = vfs.peek(&p("/d/a")).unwrap();
        assert!(partial.len() < payload.len());
        assert!(partial.iter().all(|&b| b == 0xAB));

        let vfs = ChaosVfs::new(
            19,
            FsFaultConfig {
                p_enospc: 1.0,
                ..FsFaultConfig::off()
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let err = vfs.write_file(&p("/d/a"), &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn real_vfs_passes_through() {
        let dir = std::env::temp_dir().join(format!("cap-realvfs-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let vfs = RealVfs;
        vfs.create_dir_all(&dir).unwrap();
        let a = dir.join("a.bin");
        vfs.write_file(&a, b"alpha").unwrap();
        vfs.append_file(&a, b"beta").unwrap();
        vfs.sync_file(&a).unwrap();
        let _ = vfs.sync_dir(&dir); // best-effort on exotic filesystems
        assert_eq!(vfs.read(&a).unwrap(), b"alphabeta");
        let b = dir.join("b.bin");
        vfs.rename(&a, &b).unwrap();
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec!["b.bin".to_owned()]);
        vfs.remove_file(&b).unwrap();
        assert!(vfs.read_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
