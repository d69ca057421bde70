#!/bin/bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig10 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, binary, toolchain config) and every file the benchmark
# writes (checkpoints, span traces) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" . >&2

# The benchmark runs as a child rather than replacing this shell: its
# peak_rss_mb includes the peak RSS of its own largest child (the dist
# workers), which must not pick up the build's. INT and TERM are passed
# on, and the script returns once the benchmark has exited.
"$build/perfbench" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null || true' INT TERM
status=0
wait "$pid" || status=$?
while kill -0 "$pid" 2>/dev/null; do
	status=0
	wait "$pid" || status=$?
done
exit "$status"
