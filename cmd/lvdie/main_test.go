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
		"single": {"-bench", "qsort", "-scheme", "FFW+BBR", "-die", "3", "-n", "20000"},
		"dies":   {"-bench", "qsort", "-dies", "3", "-n", "20000"},
	}
	for name, args := range modes {
		for _, shards := range []string{"0", "2"} {
			golden.CheckStdout(t, "testdata/"+name+".golden", append(args, "-shards", shards)...)
		}
	}
}
