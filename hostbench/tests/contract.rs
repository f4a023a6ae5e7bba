//! The benchmark's own tests: its names match `BENCHMARK.json`, every
//! workload passes its checks at a non-default seed, and the reference
//! table matches the committed `results/*`.
//!
//! Run with `cargo test --manifest-path hostbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use ksr_core::Json;
use ksr_hostbench::reference::{self, TABLES};
use ksr_hostbench::workload::{jobs, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    read_json(&repo_root().join("BENCHMARK.json"))
}

/// `(name, unit)` of every entry of one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run the benchmark binary for one second; returns its exit status
/// and the parsed last line of standard output.
fn run(workload: &str, seed: u64, trace: u8) -> (std::process::ExitStatus, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_ksr-hostbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    (out.status, last)
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}: {}",
        result.render()
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );
}

fn assert_metrics(result: &Json, want: &[(String, String)], what: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed, names, "{what}: metric names");
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|o| o.get(name))
            .expect("metric");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{what}: value of {name}"
        );
    }
}

#[test]
fn declared_workloads_are_the_runners() {
    let declared: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared, WORKLOADS.map(String::from).to_vec());
    let (status, result) = run("nope", 0, 0);
    assert_eq!(
        status.code(),
        Some(2),
        "an unknown workload is a usage error"
    );
    assert!(result.is_none(), "no result line for a usage error");
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let (status, timing) = run("ring_stream", 3, 0);
    assert!(status.success());
    let timing = timing.expect("result line");
    assert_clean(&timing, "ring_stream timing");
    assert_metrics(&timing, &declared("end_to_end"), "trace 0");

    let (status, layers) = run("ring_stream", 3, 1);
    assert!(status.success());
    let layers = layers.expect("result line");
    assert_clean(&layers, "ring_stream layer run");
    assert_metrics(&layers, &declared("per_layer"), "trace 1");
}

#[test]
fn a_non_default_seed_runs_every_workload_clean() {
    for w in WORKLOADS {
        let (status, result) = run(w, 7, 0);
        assert!(status.success(), "{w}");
        let result = result.expect("result line");
        assert_clean(&result, w);
        let passed = result
            .get("metrics")
            .and_then(|m| m.get("passed_frac"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(passed, Some(1.0), "{w}: failed_frac must be 0");
    }
}

/// The `results/<file>.json` row value of `metric` at `params`.
fn committed(rows: &[Json], metric: &str, params: &[(&str, Json)]) -> Option<f64> {
    rows.iter()
        .find(|r| {
            r.get("metric").and_then(Json::as_str) == Some(metric)
                && r.get("params").and_then(Json::as_obj).is_some_and(|p| {
                    p.len() == params.len()
                        && params
                            .iter()
                            .all(|(k, v)| p.iter().any(|(pk, pv)| pk == k && pv == v))
                })
        })
        .and_then(|r| r.get("value").and_then(Json::as_f64))
}

#[test]
fn reference_table_matches_committed_results() {
    for &(file, entries) in TABLES {
        let doc = read_json(&repo_root().join("results").join(format!("{file}.json")));
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows");
        for &(label, _, values) in entries {
            let (head, p) = label.rsplit_once(" p=").expect("label ends in p=N");
            let n: usize = p.parse().expect("processor count");
            for &(metric, value) in values {
                let params: Vec<(&str, Json)> = match (file, metric) {
                    ("lck", "time_per_acquire_us") => {
                        let series = head.trim_start_matches("LCK ");
                        vec![("series", Json::from(series)), ("cells", Json::from(n))]
                    }
                    ("lck", _) => {
                        let mut words = head.split(' ').skip(1);
                        let lock = words.next().expect("lock");
                        let level = words.next().expect("level");
                        vec![
                            ("lock", Json::from(lock)),
                            ("level", Json::from(level)),
                            ("cells", Json::from(n)),
                        ]
                    }
                    _ => vec![("procs", Json::from(n))],
                };
                let got = committed(rows, metric, &params).unwrap_or_else(|| {
                    panic!("results/{file}.json has no {metric} row for {label}")
                });
                assert_eq!(
                    got.to_bits(),
                    value.to_bits(),
                    "{label} {metric}: table {value}, results {got}"
                );
            }
        }
    }
}

#[test]
fn the_default_seed_is_checked_against_the_reference() {
    for w in WORKLOADS {
        let specs = jobs(w, 0).expect("declared workload");
        for spec in &specs {
            let covered = specs
                .iter()
                .any(|s| s.label == spec.label && reference::lookup(&s.label, s.seed).is_some());
            assert!(
                covered,
                "{w}: {} has no reference row at the default seed",
                spec.label
            );
        }
    }
    let err = reference::check(
        "LCK ticket_lock high p=1024",
        6624,
        &[
            ("time_per_acquire_us", 255.0),
            ("rmr_per_acquire", 252.02880859375),
        ],
    );
    assert!(
        err.is_err(),
        "a changed output must fail the reference check"
    );
}
