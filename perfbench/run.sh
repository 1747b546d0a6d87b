#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every output (the binary, the Go build cache,
# compiler temporaries and a traced run's spans.tsv) stays under .bench_build
# in the checkout, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans.tsv" "$@"
