#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload file-small --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# working directory: the Go build cache, its temporary files, the binary,
# and the detailed results and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The Go distribution's default install location, for shells whose PATH
# leaves it out.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
