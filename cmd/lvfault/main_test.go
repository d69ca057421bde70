package main

import (
	"testing"

	"repro/internal/golden"
)

// TestMain runs main when a test re-executes the binary.
func TestMain(m *testing.M) { golden.Main(m, main) }

// TestOutputDigests pins the command's stdout byte for byte with its
// default flags.
func TestOutputDigests(t *testing.T) {
	golden.CheckStdout(t, "testdata/default.golden")
}
