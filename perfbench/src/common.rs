//! Plumbing every workload shares: the run arguments, what a run hands
//! back, set-up repetition, peak memory, and the scratch directory.

use crate::stats::{median, Metrics};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How many times every workload sets itself up; `setup_s` is the median.
/// Set-up takes milliseconds, so one stall on the shared host would
/// otherwise decide the figure. The first half-dozen set-ups of a process
/// run slower, while the allocator's heap grows (fresh pages fault in);
/// with enough repetitions they stay above the median, which then reads
/// a warm set-up instead of jumping between the two.
pub const SETUP_REPS: usize = 21;

/// The command-line arguments a workload sees.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed (0 = the catalog as is).
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or whose output failed its check.
    pub failed: u64,
    /// Every metric the run measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Human-readable report lines, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// Adds a report line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    /// Counts `n` failed checks and explains them.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.report
                .push(format!("CHECK FAILED ({n}): {}", why.into()));
        }
    }
}

/// Runs `build` [`SETUP_REPS`] times, dropping every result but the
/// last, and returns it with the median set-up time in seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let value = build();
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            teardown(value);
        } else {
            last = Some(value);
        }
    }
    (last.expect("SETUP_REPS is at least one"), median(&times))
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the last CPU the process may run on; returns that CPU, or `None` when
/// the process stays where the scheduler puts it.
///
/// On a VM with a couple of vCPUs, a wake-up that crosses vCPUs goes
/// through the hypervisor and costs more than the whole service path;
/// whether the client, connection and worker threads share a vCPU is the
/// scheduler's choice and changes from run to run, and with it the round
/// trip by half. On one CPU every hand-off is a local context switch, so
/// the replays time the program's own work. The last CPU, because the
/// first one usually takes the device interrupts.
#[cfg(target_os = "linux")]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the layout of
    // `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the buffer is only read.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Confines the process to one CPU where the platform allows it.
#[cfg(not(target_os = "linux"))]
#[must_use]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A per-process scratch directory under `.bench_work/` in the current
/// directory, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory for this process.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem failure.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Percentage difference of `ours` from `reference`.
#[must_use]
pub fn pct_diff(ours: f64, reference: f64) -> f64 {
    (ours - reference) / reference * 100.0
}
