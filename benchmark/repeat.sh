#!/usr/bin/env bash
# The A/A check: run the four workloads' end-to-end runs N times on the
# current tree and print, per workload x end-to-end metric, the median, the
# quartiles, (max - min) / median and (q3 - q1) / median. Exits non-zero when
# a run was incorrect or a (max - min) / median exceeds the bound
# BENCHMARK.json declares for the metric.
#
#   bash benchmark/repeat.sh [N] [--seed S]
#
# N defaults to 5, S to 12. Run i uses seed S + i - 1, as the benchmark
# driver's own check does; two trees compared with the same N and S have run
# the same inputs pair by pair. The collected result lines stay in
# benchmark/out/repeat.tsv.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n=5
seed=12
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then n="$1"; shift; fi
if [ $# -eq 2 ] && [ "$1" = "--seed" ]; then seed="$2"; shift 2; fi
[ $# -eq 0 ] || { echo "error: unknown argument \`$1\` ([N] [--seed S])" >&2; exit 2; }
[ "$n" -ge 2 ] || { echo "error: a spread needs at least 2 runs" >&2; exit 2; }

mkdir -p "$here/out"
results="$here/out/repeat.tsv"
: > "$results"
for i in $(seq 1 "$n"); do
    s=$((seed + i - 1))
    for w in pubmed_serve dbworld_engine usjob_batch pubmed_update_mix; do
        echo "run $i/$n: $w seed $s" >&2
        line="$(bash "$here/run.sh" --workload "$w" --seed "$s" --trace 0 | tail -n 1)"
        printf '%s\t%s\n' "$w" "$line" >> "$results"
    done
done
cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --summarise "$results"
