#!/usr/bin/env bash
# The benchmark's one entry point. Run it from the repository root.
#
#   bash wfbench/run.sh                         build, then all five workloads: plain, then --trace 1
#   bash wfbench/run.sh --smoke                 the same at 1/20 size (whole suite < 15 s)
#   bash wfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                               one run; last stdout line is the driver's result line
#   bash wfbench/run.sh --set <name>            seeds 1..10 of every workload into out/<name>/results.jsonl
#   bash wfbench/run.sh compare <set-a> <set-b> do two sets (result files) agree within the bounds?
#   bash wfbench/run.sh pin                     fingerprints.json for seeds 11 and 12
#
# Build output goes to stderr so stdout stays the benchmark's own.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/wfbench"
out="$here/out"
mkdir -p "$out"

WFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
WFBENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export WFBENCH_RUSTC WFBENCH_COMMIT

workloads=(solo-ingest fleet-ingest durable-ingest tiered-read mixed-live)

case "${1:-}" in
compare | pin)
    exec "$bin" "$@"
    ;;
--set)
    set_dir="$out/${2:?--set needs a name}"
    mkdir -p "$set_dir"
    for w in "${workloads[@]}"; do
        for seed in 1 2 3 4 5 6 7 8 9 10; do
            "$bin" run --workload "$w" --seed "$seed" --out-dir "$set_dir" | tail -n 1
        done
    done
    echo "set written to $set_dir/results.jsonl"
    ;;
"" | --smoke)
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            "$bin" run --workload "$w" --trace "$trace" --out-dir "$out" "$@"
        done
    done
    ;;
*)
    exec "$bin" run --out-dir "$out" "$@"
    ;;
esac
