#!/bin/bash
# Writes the BENCH_*.json files at the repository root, each metric as
# the quartiles of at least ten runs (scripts/benchjson):
#
#   BENCH_<workload>.json — each of BENCHMARK.json's workloads at seeds
#       1..10, untraced (--trace 0: the end-to-end metrics) and traced
#       (--trace 1: the per-layer metrics), --seconds 2 per run;
#   BENCH_lint.json — cmd/lvlint's BenchmarkLint ten times: one module
#       load, each check over that load, and the whole lint.
#
# A wrong output, a failed operation or a metric with fewer than ten
# samples stops the script before it replaces any BENCH file. About
# seven minutes on a 2-CPU host.
set -euo pipefail

cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
go build -o "$out/benchjson" ./scripts/benchjson

for workload in fig10 die-campaign hier-chaos serve-mix; do
	for trace in 0 1; do
		for seed in 1 2 3 4 5 6 7 8 9 10; do
			bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 2 --trace "$trace" | tail -n 1
		done
	done | "$out/benchjson" >"$out/BENCH_$workload.json"
done
go test -run '^$' -bench '^BenchmarkLint$' -benchtime 1x -count 10 ./cmd/lvlint | "$out/benchjson" >"$out/BENCH_lint.json"

mv "$out"/BENCH_*.json .
echo "bench: wrote" BENCH_*.json
