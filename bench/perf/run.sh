#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. The driver calls
# this from the root of a checkout as
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it writes — the Go build cache, the binary, sockets, span
# files — stays under .bench_build in that checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off

# bench/perf is its own module (go.mod here) that replaces `repro` with the
# tree two levels up; without that tree this build fails and so does the run.
go build -C "$here" -o "$out/perf" . >&2
exec "$out/perf" "$@"
