//! Repository invariants the compiler cannot check. Each test scans the
//! source tree from the workspace root and names the file and line of
//! every violation it finds.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The crate directories under `crates/`, sorted.
fn crate_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("crates/ entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "no crates under crates/");
    dirs
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap_or_else(|e| panic!("read {}: {e}", d.display())) {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// `(line number, line)` for every line of `path`.
fn numbered_lines(path: &Path) -> Vec<(usize, String)> {
    fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.to_owned()))
        .collect()
}

/// `path:line: text`, with `path` relative to the workspace root.
fn locate(path: &Path, line: usize, text: &str) -> String {
    let rel = path.strip_prefix(root()).unwrap_or(path);
    format!("{}:{line}: {}", rel.display(), text.trim())
}

#[track_caller]
fn assert_clean(rule: &str, violations: &[String]) {
    assert!(violations.is_empty(), "{rule}:\n{}", violations.join("\n"));
}

/// The dependency name a manifest line declares inside a dependency
/// table (`name = ...`, `name.workspace = true`, `"name" = ...`).
fn dependency_key(line: &str) -> Option<&str> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (key, _) = line.split_once('=')?;
    let key = key.split('.').next()?.trim().trim_matches('"');
    Some(key)
}

/// The hermetic build: every dependency of the root and of every crate
/// is a workspace `cap-*` crate, so nothing is ever fetched.
#[test]
fn manifests_depend_only_on_workspace_crates() {
    let mut manifests = vec![root().join("Cargo.toml")];
    manifests.extend(crate_dirs().iter().map(|d| d.join("Cargo.toml")));
    let mut violations = Vec::new();
    for manifest in &manifests {
        let mut in_deps = false;
        for (n, line) in numbered_lines(manifest) {
            let trimmed = line.trim();
            if trimmed.starts_with('[') {
                let header = trimmed
                    .trim_start_matches('[')
                    .split(']')
                    .next()
                    .unwrap_or("");
                // `[dependencies.foo]` names `foo` in its header.
                let (table, key) = match header.split_once("dependencies.") {
                    Some((t, k)) => (t, Some(k.trim_matches('"'))),
                    None => (header, None),
                };
                in_deps = key.is_none() && table.ends_with("dependencies");
                if key.is_some_and(|k| !k.starts_with("cap-")) {
                    violations.push(locate(manifest, n, &line));
                }
                continue;
            }
            if in_deps && dependency_key(&line).is_some_and(|k| !k.starts_with("cap-")) {
                violations.push(locate(manifest, n, &line));
            }
        }
    }
    assert_clean(
        "a manifest depends on a crate outside the workspace",
        &violations,
    );
}

/// One metrics vocabulary: only cap-obs defines histogram or registry
/// types. (Saturating counters in cap-predictor are architectural
/// state, not telemetry, and are not named like either.)
#[test]
fn metric_types_are_defined_only_in_cap_obs() {
    let mut violations = Vec::new();
    for dir in crate_dirs().iter().filter(|d| !d.ends_with("cap-obs")) {
        for file in rust_files(&dir.join("src")) {
            for (n, line) in numbered_lines(&file) {
                let defines = line.split("struct ").skip(1).any(|rest| {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    name.contains("Histogram") || name.contains("MetricRegistry")
                });
                if defines {
                    violations.push(locate(&file, n, &line));
                }
            }
        }
    }
    assert_clean(
        "a crate other than cap-obs defines a metric type",
        &violations,
    );
}

/// The crash-point matrix proves recovery only for disk operations that
/// go through the `Vfs` seam, so the checkpoint and journal code never
/// touches `std::fs` directly.
#[test]
fn checkpoint_and_journal_reach_disk_only_through_the_vfs() {
    let mut violations = Vec::new();
    for rel in [
        "crates/cap-harness/src/checkpoint.rs",
        "crates/cap-snapshot/src/journal.rs",
    ] {
        let file = root().join(rel);
        for (n, line) in numbered_lines(&file) {
            let code = !line.trim_start().starts_with("//");
            if code && (line.contains("std::fs") || line.contains("File::")) {
                violations.push(locate(&file, n, &line));
            }
        }
    }
    assert_clean(
        "a checkpoint/journal code path bypasses the Vfs seam",
        &violations,
    );
}

/// Adding a backend stays a one-row registry edit: nothing outside
/// `cap-service/src/backend.rs` matches on `BackendKind`, on one line
/// (`match kind { BackendKind::… }`) or as an arm (`BackendKind::… =>`).
/// The same goes for `PredictorKind`, the supervisor's old name for it,
/// so the alias cannot carry a second table back.
#[test]
fn backend_kind_is_matched_only_in_the_registry() {
    let registry = root().join("crates/cap-service/src/backend.rs");
    let kinds = ["BackendKind", "PredictorKind"];
    let mut violations = Vec::new();
    for dir in ["crates", "src", "examples"] {
        for file in rust_files(&root().join(dir)) {
            if file == registry {
                continue;
            }
            for (n, line) in numbered_lines(&file) {
                let one_line = line
                    .split_once("match ")
                    .is_some_and(|(_, rest)| kinds.iter().any(|k| rest.contains(k)));
                let arm = line.split_once("=>").is_some_and(|(pattern, _)| {
                    kinds.iter().any(|k| pattern.contains(&format!("{k}::")))
                });
                if one_line || arm {
                    violations.push(locate(&file, n, &line));
                }
            }
        }
    }
    assert_clean(
        "BackendKind or PredictorKind is matched outside crates/cap-service/src/backend.rs",
        &violations,
    );
}
