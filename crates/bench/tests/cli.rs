//! The `run_all` front door as a user meets it: spawn the binary and
//! check exit codes, stderr, and the files a selection leaves behind.

use std::path::PathBuf;
use std::process::{Command, Output};

use ksr_bench::registry::ids;

/// Run `run_all` with `args`.
fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("spawn run_all")
}

/// Run `run_all` with `args` and require exit 0.
fn run_all_ok(args: &[&str]) {
    let out = run_all(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "run_all {args:?}:\n{stderr}");
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ksr_cli_{tag}_{}", std::process::id()))
}

#[test]
fn unknown_id_exits_2_and_lists_the_registry() {
    let out = run_all(&["--only", "NOPE"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id NOPE"), "{stderr}");
    for id in ids() {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(id)),
            "stderr does not list {id}:\n{stderr}"
        );
    }
}

#[test]
fn malformed_seed_exits_2_with_usage() {
    let out = run_all(&["--seed", "abc"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --seed value: abc"), "{stderr}");
    assert!(stderr.contains("usage: run_all"), "{stderr}");
}

#[test]
fn lowercase_only_runs_and_indexes_just_that_experiment() {
    let dir = temp_dir("only");
    let _ = std::fs::remove_dir_all(&dir);
    run_all_ok(&[
        "--quick",
        "--only",
        "sec31a",
        "--results",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert!(dir.join("sec31a.txt").is_file());
    assert!(dir.join("sec31a.json").is_file());
    let summary = std::fs::read_to_string(dir.join("summary.json")).unwrap();
    let named: Vec<&str> = summary
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"id\": \""))
        .map(|rest| rest.trim_end_matches(['"', ',']))
        .collect();
    assert_eq!(named, ["SEC31A"], "{summary}");
    let _ = std::fs::remove_dir_all(dir);
}
