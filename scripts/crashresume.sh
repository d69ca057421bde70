#!/bin/sh
# Crash-recovery end-to-end gate. For each grid command and mode below,
# runs a sharded campaign with a durable checkpoint, SIGKILLs it mid-run
# (no signal handler fires; only the checkpointed rows survive), then
# reruns with -resume and asserts the output is byte-identical to an
# uninterrupted in-process run — the whole point of internal/dist's
# checkpoints in one executable check.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d -t crashresume.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

for cmd in lvsim lvdie lvchaos; do
	go build -o "$tmp/$cmd" ./cmd/$cmd
done

# crash_resume NAME COMMAND ARGS... runs one case.
crash_resume() {
	name=$1
	cmd=$2
	shift 2

	echo "== $name: reference run (uninterrupted, in-process)"
	"$tmp/$cmd" "$@" >"$tmp/$name.want"

	echo "== $name: sharded campaign, SIGKILLed mid-run"
	ckpt=$tmp/$name.ckpt
	"$tmp/$cmd" "$@" -shards 2 -checkpoint "$ckpt" >"$tmp/$name.killed" 2>&1 &
	pid=$!
	# Wait for the first durable flush so the checkpoint is non-trivial,
	# then let a little more land before the kill.
	while [ ! -s "$ckpt" ]; do
		kill -0 "$pid" 2>/dev/null || break
		sleep 0.1
	done
	sleep 0.2
	if kill -9 "$pid" 2>/dev/null; then
		echo "   SIGKILLed the supervisor (pid $pid)"
	else
		echo '   campaign finished before the kill landed; resume must still match'
	fi
	wait "$pid" 2>/dev/null || true

	echo "== $name: resume from the checkpoint"
	"$tmp/$cmd" "$@" -shards 2 -checkpoint "$ckpt" -resume >"$tmp/$name.got"

	if ! cmp -s "$tmp/$name.want" "$tmp/$name.got"; then
		echo "crashresume: FAIL — resumed $name output differs from the uninterrupted reference" >&2
		diff "$tmp/$name.want" "$tmp/$name.got" >&2 || true
		exit 1
	fi
	echo "crashresume: resumed $name output is byte-identical to the uninterrupted run"
}

# All schemes x one benchmark: a 13-row grid with enough Monte Carlo
# work per row that the kill reliably lands while rows are still
# pending, even on a fast machine.
crash_resume rows lvsim -bench qsort -mv 400 -n 200000 -maps 10 -seed 1

# The event-driven multicore hierarchy (sim.hier jobs): each die set is
# one checkpointable job.
crash_resume hierarchy lvsim -hierarchy -cores 2 -mvs 400,560 -scheme FFW+BBR -bench qsort,dijkstra -n 150000 -maps 8 -seed 1

# Die sweeps (sim.die jobs): one die's whole DVFS ladder per row.
crash_resume dies lvdie -bench qsort -dies 16 -n 200000

# Multicore injection campaigns (sim.hierchaos jobs).
crash_resume hierchaos lvchaos -hierarchy -cores 2 -bench qsort,dijkstra -dies 8 -epochs 10 -epoch-n 40000
