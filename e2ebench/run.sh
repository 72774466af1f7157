#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; the arguments go to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload fuzz --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# journals, profiles, spans) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset. Build output goes to stderr, so the
# last line of stdout is the benchmark's result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/e2ebench"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench/e2ebench" .) >&2
exec "$out/e2ebench/e2ebench" --out "$out/e2ebench" "$@"
