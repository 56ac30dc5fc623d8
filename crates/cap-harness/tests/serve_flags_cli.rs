//! Counts that must be at least one, through the real `simulate` binary:
//! `serve` and `route` refuse `--workers 0` and `--queue 0` with exit 2
//! and a message naming the flag, as every other bad number does, rather
//! than panicking in the service (for `route`, in every node that
//! `--respawn` would start).

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// How long a refused command may take; `route` with an accepted count
/// serves until killed, so it must not be waited on without a bound.
const DEADLINE: Duration = Duration::from_secs(10);

/// Runs `simulate args` and returns its exit status and stderr. A child
/// still running at the deadline is killed and fails the test.
fn run(args: &[&str]) -> (ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simulate");
    let deadline = Instant::now() + DEADLINE;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll simulate") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!(
                "simulate {} still running after {DEADLINE:?}",
                args.join(" ")
            );
        }
        sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    (status, stderr)
}

#[test]
fn zero_workers_or_queue_exits_2_naming_the_flag() {
    for (args, flag) in [
        (&["serve", "--workers", "0"][..], "--workers"),
        (&["serve", "--queue", "0"], "--queue"),
        (
            &["route", "--nodes", "127.0.0.1:9", "--workers", "0"],
            "--workers",
        ),
        (
            &["route", "--nodes", "127.0.0.1:9", "--queue", "0"],
            "--queue",
        ),
    ] {
        let (status, stderr) = run(args);
        let cmd = args.join(" ");
        assert_eq!(status.code(), Some(2), "simulate {cmd}: stderr {stderr}");
        assert!(stderr.contains(flag), "simulate {cmd}: stderr {stderr}");
    }
}
