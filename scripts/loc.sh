#!/bin/sh
# Counts the module's Go lines: non-test .go files outside testdata/ and
# perfbench/, lines that are neither blank nor start with // (after
# indentation). Prints one "<count> <package dir>" line per package,
# then the total.
#
#   sh scripts/loc.sh              # the whole module
#   sh scripts/loc.sh internal/sim # packages under one directory, from the repository root
set -eu

cd "$(dirname "$0")/.."
find "${1:-.}" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path '*perfbench/*' |
	xargs awk '
		!/^[ \t]*$/ && !/^[ \t]*\/\// {
			dir = FILENAME
			sub(/\/[^\/]*$/, "", dir)
			sub(/^\.\//, "", dir)
			n[dir]++
			total++
		}
		END {
			for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"
			close("sort -k2")
			printf "%6d total\n", total
		}'
