#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash ribench/run.sh --workload cohort --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# at the checkout root: the Go build cache, GOPATH, Go's user
# configuration, the binary and the run's scratch files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$root/ribench" && go build -buildvcs=false -o "$build/ribench" .) >&2
cd "$root"
exec "$build/ribench" "$@"
