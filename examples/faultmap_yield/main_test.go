package main

import (
	"testing"

	"repro/internal/golden"
)

// TestMain runs main when a test re-executes the binary.
func TestMain(m *testing.M) { golden.Main(m, main) }

// TestStdout pins the example's default-seed stdout byte for byte.
func TestStdout(t *testing.T) {
	golden.CheckStdout(t, "testdata/stdout.golden")
}
