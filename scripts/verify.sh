#!/bin/sh
# Tier-1 verification gate. Run from the repository root.
#
#   gofmt  — every Go file outside testdata/ is gofmt-clean
#   build  — everything compiles, including examples and testdata-free cmds
#   vet    — stdlib vet checks
#   test   — full unit/integration suite, shuffled (-shuffle=on) so
#            order-dependent tests cannot hide behind file order; it
#            includes the golden-file tests that pin the simulator's,
#            every command's and every example's output bytes, and
#            cmd/lvlint's TestSelfLint, which runs the repo's own
#            analyzers (all eighteen checks of `lvlint ./...`) over the
#            module and fails on any finding
#   ablations — one pass of bench_test.go's ablation benchmarks, whose
#            numbers EXPERIMENTS.md's Ablations section quotes; go test
#            compiles benchmarks but runs none without -bench
#   perfbench — vet and test the benchmark harness module (its golden
#            output digests), so a change to an internal API or output
#            the benchmark depends on fails here, not in a benchmark run
#   smoke  — one traced perfbench pass per workload (--seconds 1
#            --trace 1) must report "correct":true: it rebuilds every
#            run from the layers' public constructors and checks it
#            field for field against the real one, and fails when
#            per-layer self times do not cover the traced wall time
#   output — one untraced perfbench pass per workload (--seconds 1
#            --trace 0) must report "correct":true: that mode checks the
#            simulation's output bytes against perfbench's golden
#            digests, which the traced smoke never consults
#   race   — race detector on the packages with shared mutable state
#            (the run scheduler, the simulator fan-out, the cache model
#            it drives, the fault-injection/back-off layers the chaos
#            campaigns exercise concurrently, the distributed
#            supervisor with its worker subprocesses, and the
#            event-driven hierarchy whose per-run engines must stay
#            isolated under the parallel grid)
#   fuzz   — short campaigns on the fuzz targets (serialization, fault
#            map mutation, FFW stored-pattern round trip, checkpoint
#            decode/encode, canonical spec hashing); regressions land
#            in the checked-in corpus
#   serve  — lvserve smoke: three concurrent identical clients against
#            a live server at two worker counts must get byte-identical
#            bodies from exactly one simulation each (coalescing), and
#            SIGTERM must drain to a zero exit
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt -l'
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== go test -shuffle=on ./...'
go test -shuffle=on ./...

echo "== go test -run '^\$' -bench Ablation -benchtime 1x ."
go test -run '^$' -bench Ablation -benchtime 1x .

echo '== go -C perfbench vet ./... && go -C perfbench test ./...'
go -C perfbench vet ./...
go -C perfbench test ./...

echo '== traced perfbench smoke (every workload, --seconds 1 --trace 1)'
for w in fig10 die-campaign hier-chaos serve-mix; do
	out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
	case "$out" in
	'{"correct":true,'*) echo "$w: correct" ;;
	*)
		echo "perfbench: traced $w run is not correct:" >&2
		echo "$out" | cut -c1-2000 >&2
		exit 1
		;;
	esac
done

echo '== untraced perfbench output check (every workload, --seconds 1 --trace 0)'
for w in fig10 die-campaign hier-chaos serve-mix; do
	out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
	case "$out" in
	'{"correct":true,'*) echo "$w: correct" ;;
	*)
		echo "perfbench: untraced $w run does not match the golden output:" >&2
		echo "$out" | cut -c1-2000 >&2
		exit 1
		;;
	esac
done

echo '== go test -race ./internal/engine/... ./internal/sim/... ./internal/cache/... ./internal/inject/... ./internal/dvfs/... ./internal/dist/... ./internal/event/... ./internal/hier/... ./internal/serve/...'
go test -race ./internal/engine/... ./internal/sim/... ./internal/cache/... ./internal/inject/... ./internal/dvfs/... ./internal/dist/... ./internal/event/... ./internal/hier/... ./internal/serve/...

FUZZTIME="${FUZZTIME:-3s}"
echo "== go test -fuzz (${FUZZTIME} each)"
go test -run '^$' -fuzz '^FuzzUnmarshalBinary$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzUnmarshalCompressed$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzMapMutation$' -fuzztime "$FUZZTIME" ./internal/faultmap/
go test -run '^$' -fuzz '^FuzzWindowRoundTrip$' -fuzztime "$FUZZTIME" ./internal/ffw/
go test -run '^$' -fuzz '^FuzzCheckpointRoundTrip$' -fuzztime "$FUZZTIME" ./internal/dist/
go test -run '^$' -fuzz '^FuzzRunSpecCanonicalHash$' -fuzztime "$FUZZTIME" ./internal/sim/

echo '== lvserve smoke (coalescing, determinism across worker counts, graceful drain)'
servebin=$(mktemp -t lvserve.XXXXXX)
addrfile=$(mktemp -t lvserve-addr.XXXXXX)
servepid=""
cleanup_serve() {
	[ -n "$servepid" ] && kill "$servepid" 2>/dev/null || true
	rm -f "$servebin" "$addrfile"
}
trap cleanup_serve EXIT
go build -o "$servebin" ./cmd/lvserve
smoke_sha=""
for w in 1 2; do
	rm -f "$addrfile"
	"$servebin" -addr 127.0.0.1:0 -addr-file "$addrfile" -workers "$w" &
	servepid=$!
	i=0
	while [ ! -s "$addrfile" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "lvserve: server never bound" >&2
			exit 1
		fi
		sleep 0.1
	done
	line=$("$servebin" -smoke "http://$(cat "$addrfile")")
	echo "workers=$w $line"
	# A thundering herd of three identical clients must simulate once.
	case "$line" in
	*"computes=1") ;;
	*)
		echo "lvserve: herd did not coalesce: $line" >&2
		exit 1
		;;
	esac
	# SIGTERM must drain cleanly: zero exit, no truncated stream (the
	# smoke client already checked the terminator before this point).
	kill -TERM "$servepid"
	wait "$servepid"
	servepid=""
	sha=${line%% *}
	if [ -z "$smoke_sha" ]; then
		smoke_sha=$sha
	elif [ "$smoke_sha" != "$sha" ]; then
		echo "lvserve: response bodies differ across worker counts" >&2
		exit 1
	fi
done

echo 'verify: all gates passed'
