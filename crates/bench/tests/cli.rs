//! The `run_all` front door as a user meets it: spawn the binary and
//! check exit codes, stderr, and the files a selection leaves behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use ksr_bench::registry::ids;

/// Run `run_all` with `args`.
fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("spawn run_all")
}

/// Run `run_all` with `args` and require exit 0; returns stderr.
fn run_all_ok(args: &[&str]) -> String {
    let out = run_all(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "run_all {args:?}:\n{stderr}");
    stderr
}

/// Every artifact in `dir` except the wall-clock `timings.json`, as
/// (name, bytes) sorted by name.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name() != "timings.json")
        .map(|e| {
            let bytes = std::fs::read(e.path()).expect("read artifact");
            (e.file_name().into_string().expect("utf-8 name"), bytes)
        })
        .collect();
    files.sort();
    files
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
    let out = run_all(&[
        "--quick",
        "--only",
        "sec31a",
        "--results",
        dir.to_str().expect("utf-8 temp dir"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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

#[test]
fn shards_then_a_plain_cached_run_match_an_uncached_run() {
    let (cache, sharded, plain) = (
        temp_dir("shard_cache"),
        temp_dir("shard"),
        temp_dir("plain"),
    );
    for dir in [&cache, &sharded, &plain] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let path = |dir: &PathBuf| dir.to_str().expect("utf-8 temp dir").to_string();
    let (cache_s, sharded_s, plain_s) = (path(&cache), path(&sharded), path(&plain));
    let base = ["--quick", "--only", "SEC31A"];

    for shard in ["1/2", "2/2"] {
        let args = [&base[..], &["--cache", &cache_s, "--shard", shard]].concat();
        let stderr = run_all_ok(&[&args[..], &["--results", &sharded_s]].concat());
        assert!(stderr.contains("skipped (shard "), "{stderr}");
        assert!(
            !sharded.join("summary.json").exists(),
            "a shard run writes no artifacts"
        );
    }
    let stderr = run_all_ok(&[&base[..], &["--cache", &cache_s, "--results", &sharded_s]].concat());
    assert!(stderr.contains(" 0 miss(es)"), "{stderr}");
    run_all_ok(&[&base[..], &["--results", &plain_s]].concat());

    let expected = artifacts(&plain);
    assert!(expected.iter().any(|(name, _)| name == "sec31a.json"));
    assert_eq!(
        artifacts(&sharded),
        expected,
        "shards plus a cached run must byte-match an uncached run"
    );
    for dir in [cache, sharded, plain] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
