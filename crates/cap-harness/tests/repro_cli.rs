//! End-to-end tests of the `repro` binary's resilience mode: panic
//! isolation, `--keep-going`, and partial-results JSON.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_json(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cap-repro-test-{name}-{}.json", std::process::id()));
    p
}

#[test]
fn keep_going_survives_an_injected_panic_and_emits_partial_json() {
    let json = tmp_json("keep-going");
    let out = repro()
        .args([
            "fig5",
            "text-coverage",
            "--tiny",
            "--keep-going",
            "--inject-panic",
            "fig5",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "--keep-going must exit 0 despite the panic; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("partial JSON written");
    let _ = std::fs::remove_file(&json);
    assert!(
        body.contains(r#""id": "fig5", "status": "panicked""#),
        "fig5 recorded as panicked:\n{body}"
    );
    assert!(
        body.contains(r#""id": "text-coverage", "status": "ok""#),
        "the batch continued past the panic:\n{body}"
    );
    assert!(
        body.contains("injected panic"),
        "panic message captured:\n{body}"
    );
    assert!(body.contains(r#""ok": 1"#) && body.contains(r#""failed": 1"#));
}

#[test]
fn without_keep_going_a_panic_fails_the_run_but_still_writes_json() {
    let json = tmp_json("fail-fast");
    let out = repro()
        .args([
            "fig5",
            "text-coverage",
            "--tiny",
            "--inject-panic",
            "fig5",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("spawn repro");
    assert!(
        !out.status.success(),
        "a panicking experiment must fail the run"
    );
    let body = std::fs::read_to_string(&json).expect("JSON written even on failure");
    let _ = std::fs::remove_file(&json);
    assert!(body.contains(r#""status": "panicked""#));
    assert!(
        !body.contains(r#""id": "text-coverage""#),
        "fail-fast stops at the first failure:\n{body}"
    );
}

#[test]
fn clean_run_reports_every_experiment_ok() {
    let json = tmp_json("clean");
    let out = repro()
        .args(["fig5", "--tiny", "--json"])
        .arg(&json)
        .output()
        .expect("spawn repro");
    assert!(out.status.success());
    let body = std::fs::read_to_string(&json).expect("JSON written");
    let _ = std::fs::remove_file(&json);
    assert!(body.contains(r#""id": "fig5", "status": "ok""#));
    assert!(body.contains(r#""failed": 0"#));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("completed in"),
        "human output preserved:\n{stdout}"
    );
}

#[test]
fn unknown_experiment_still_exits_nonzero() {
    let out = repro()
        .args(["no-such-figure", "--tiny"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}
