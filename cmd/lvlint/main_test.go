package main

import (
	"path/filepath"
	"testing"

	"repro/internal/analyze"
)

// TestSelfLint runs every check over the whole module, as `lvlint ./...`
// does from the module root, and fails with each finding it reports.
func TestSelfLint(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	module, err := analyze.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load(root, module, []string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analyze.Run(pkgs, analyze.All(), module) {
		rel, err := filepath.Rel(root, d.Position.Filename)
		if err != nil {
			rel = d.Position.Filename
		}
		t.Errorf("%s:%d:%d: [%s] %s", rel, d.Position.Line, d.Position.Column, d.Check, d.Message)
	}
}
