package main

import (
	"testing"

	"repro/internal/golden"
)

// TestMain runs main when a test re-executes the binary, and in the
// -shards worker processes that main re-executes in turn.
func TestMain(m *testing.M) { golden.Main(m, main) }

// TestOutputDigests pins the command's stdout byte for byte in each
// mode, in-process and across two worker processes.
func TestOutputDigests(t *testing.T) {
	modes := map[string][]string{
		"campaigns": {"-bench", "qsort,dijkstra", "-dies", "2", "-epochs", "4", "-epoch-n", "10000"},
		"hierarchy": {"-hierarchy", "-cores", "2", "-bench", "qsort,dijkstra", "-dies", "2", "-epochs", "4", "-epoch-n", "8000"},
	}
	for name, args := range modes {
		for _, shards := range []string{"0", "2"} {
			golden.CheckStdout(t, "testdata/"+name+".golden", append(args, "-shards", shards)...)
		}
	}
}
