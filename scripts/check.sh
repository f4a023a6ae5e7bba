#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, docs, tests, a quick end-to-end run of
# every registered experiment, and the parallel-executor determinism
# gate. Run from the repo root before pushing.
#
# Every run writes into a throwaway directory, so the script leaves
# results/ as committed. The perf gate reads results/bench.json as its
# baseline and writes its fresh report to a throwaway directory, so the
# baseline never moves as a side effect of a passing run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc lints deny like the rest)"
cargo doc --workspace --no-deps

echo "==> cargo test --workspace --release"
cargo test --workspace --release --quiet

echo "==> hostbench build (compile-only: the benchmark builds against the workspace APIs)"
cargo build --release --offline --manifest-path hostbench/Cargo.toml

tmp_serial=$(mktemp -d)
tmp_parallel=$(mktemp -d)
tmp_perf=$(mktemp -d)
tmp_check=$(mktemp -d)
trap 'rm -rf "$tmp_serial" "$tmp_parallel" "$tmp_perf" "$tmp_check"' EXIT

# Compare every artifact of two result dirs, excluding the wall-clock
# files (timings.json, bench.json — legitimately nondeterministic). The
# second dir must hold exactly the reference's artifacts: a missing,
# differing, or extra file fails.
compare_dirs() {
    local ref="$1" other="$2" why="$3" name
    for f in "$ref"/*; do
        name=$(basename "$f")
        case "$name" in
        timings.json | bench.json) continue ;;
        esac
        if ! cmp -s "$f" "$other/$name"; then
            echo "determinism violation: $name differs ($why)" >&2
            exit 1
        fi
    done
    for f in "$other"/*; do
        name=$(basename "$f")
        case "$name" in
        timings.json | bench.json) continue ;;
        esac
        if [ ! -e "$ref/$name" ]; then
            echo "determinism violation: extra artifact $name ($why)" >&2
            exit 1
        fi
    done
}

echo "==> determinism gate: quick run_all at -j1 vs -j8 (byte-compare)"
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --quick --jobs 1 --results "$tmp_serial" > "$tmp_serial/stdout.txt"
cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --quick --jobs 8 --results "$tmp_parallel" > "$tmp_parallel/stdout.txt"
compare_dirs "$tmp_serial" "$tmp_parallel" "between -j1 and -j8"

echo "==> perf gate: microworkload minima vs committed results/bench.json (>10% fails)"
# Wall-clock numbers for the coordinator hot path; like timings.json,
# bench.json is nondeterministic and excluded from byte comparisons.
# The gate fails on any case regressing more than 10% (and 50ms) over
# the committed minima. The fresh report goes to a throwaway directory:
# results/bench.json moves only when it is re-recorded on purpose, in a
# commit that says why. Trajectory entries with before/after per
# optimization PR live in the repo-root BENCH_<n>.json files.
cargo run --quiet --release -p ksr-bench --bin perf -- \
    --reps 3 --results "$tmp_perf" --gate results/bench.json

echo "==> run_all --check --quick (coherence + race + predictive + lint verification)"
# Exits non-zero on any coherence violation, data race, predictive
# finding, or schedule lint; the full report lands in violations.json
# and the per-experiment summary lines on stderr.
if ! cargo run --quiet --release -p ksr-bench --bin run_all -- \
    --check --quick --results "$tmp_check" > "$tmp_check/stdout.txt" 2> "$tmp_check/stderr.txt"; then
    cat "$tmp_check/stderr.txt" >&2
    exit 1
fi
grep '^\[check: ' "$tmp_check/stderr.txt"

echo "==> checker observed LAD, SCB, CMB and LCK clean"
# The N-level LCA routing and ARD-combining experiments (LAD, SCB, CMB)
# exercise shadow state the checker models specially (merged
# GetSubPage/ReadData grants); the cohort lock (LCK) keeps all queue
# state on gsp'd or head-spun sub-pages and never holds two gsp
# sub-pages at once. The run above already fails on any violation; this
# asserts that each of them was actually observed, so a regression that
# drops one from the checked run can't hide behind the aggregate PASS.
for id in LAD SCB CMB LCK; do
    if ! grep -Eq "^\[check: $id: [1-9][0-9]* machine\(s\), [0-9]+ coherence event\(s\), 0 violation\(s\)\]$" \
        "$tmp_check/stderr.txt"; then
        echo "check gate: $id has no clean checked machine" >&2
        exit 1
    fi
done

echo "==> all checks passed"
