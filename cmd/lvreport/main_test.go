package main

import (
	"testing"

	"repro/internal/golden"
)

// TestMain runs main when a test re-executes the binary.
func TestMain(m *testing.M) { golden.Main(m, main) }

// TestOutputDigests pins the quick full report byte for byte, on one
// worker and on the default worker count.
func TestOutputDigests(t *testing.T) {
	for _, args := range [][]string{{"-all", "-quick", "-workers", "1"}, {"-all", "-quick"}} {
		golden.CheckStdout(t, "testdata/all-quick.golden", args...)
	}
}
