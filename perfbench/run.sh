#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload disk5k --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artifact and toolchain cache goes
# under .bench_build/ in the current directory, so nothing is written outside
# the checkout. The build fails (non-zero exit, no result line) when the
# simulator sources are not beside the benchmark.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# The binary measures set-up from this instant: exec, runtime start and
# package initialisation all count towards setup_s.
PERFBENCH_START_NS=$(date +%s%N) exec "$out/perfbench" "$@"
