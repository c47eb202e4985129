#!/usr/bin/env bash
# One command for every number in BENCHMARK.json.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Builds the released `aeetes` binary and the harness (release, offline),
# then runs each selected workload in its own process: once with tracing off
# (the end-to-end metrics) and once with tracing on (the per-layer metrics).
# `--trace` narrows that to one of the two; it is how the benchmark driver
# asks for each kind of run. The last line of every run is the result
# object; everything a run writes stays under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workloads=(pubmed_serve dbworld_engine usjob_batch pubmed_update_mix)
traces=(0 1)
pass=()
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "error: $1 needs a value" >&2; exit 2; }
    case "$1" in
        --workload) workloads=("$2") ;;
        --trace) traces=("$2") ;;
        --seed|--seconds) pass+=("$1" "$2") ;;
        *) echo "error: unknown argument \`$1\` (--workload NAME, --seed N, --seconds S, --trace 0|1)" >&2; exit 2 ;;
    esac
    shift 2
done

# One target directory for both builds — the root workspace's `aeetes-cli`
# and the harness, which is a workspace of its own — made absolute so that it
# means the same to both. Cargo's chatter goes to stderr: stdout carries only
# the harness's output.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p aeetes-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# glibc keeps freed blocks in per-thread arenas and raises its mmap threshold
# as large blocks are freed, so what stays resident depends on which pool
# worker ran which task: with the defaults the peak RSS of `usjob_batch` read
# 378, 402 and 402 MiB on three runs of one seed. With the threshold pinned
# at its initial 128 KiB every large block is its own mapping, returned when
# freed, and the same three runs read 309.7, 310.1 and 310.7 MiB; timings
# moved by less than their own spread. (`MALLOC_ARENA_MAX=1` also steadies
# the peak, but serialises the two shard builders: updates took 2.5x longer.)
# The harness and the `serve` children it spawns all run this way.
export MALLOC_MMAP_THRESHOLD_=131072

for w in "${workloads[@]}"; do
    for t in "${traces[@]}"; do
        "$target/release/aeetes-benchmark" --workload "$w" --trace "$t" ${pass[@]+"${pass[@]}"} \
            --aeetes "$target/release/aeetes" --out "$here/out"
    done
done
