package main

import (
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/golden"
)

// TestMain runs main when a test re-executes the binary.
func TestMain(m *testing.M) { golden.Main(m, main) }

// TestCLI pins the command's stdout for two flag sets: -list, whose
// first column CI's per-check budget loop reads as the check names, and
// -json over a package with no findings, which prints an empty array
// and exits 0.
func TestCLI(t *testing.T) {
	golden.CheckStdout(t, "testdata/list.golden", "-list")
	golden.CheckStdout(t, "testdata/json.golden", "-json", ".")
}

// loadModule loads the whole module as `lvlint ./...` does from the
// module root, and returns its packages and module path.
func loadModule(tb testing.TB) (pkgs []*analyze.Package, root, module string) {
	tb.Helper()
	root, err := moduleRoot()
	if err != nil {
		tb.Fatal(err)
	}
	module, err = analyze.ModulePath(root)
	if err != nil {
		tb.Fatal(err)
	}
	pkgs, err = load(root, module, []string{filepath.Join(root, "...")})
	if err != nil {
		tb.Fatal(err)
	}
	return pkgs, root, module
}

// TestSelfLint runs every check over the whole module, as `lvlint ./...`
// does from the module root, and fails with each finding it reports.
func TestSelfLint(t *testing.T) {
	pkgs, root, module := loadModule(t)
	for _, d := range analyze.Run(pkgs, analyze.All(), module) {
		rel, err := filepath.Rel(root, d.Position.Filename)
		if err != nil {
			rel = d.Position.Filename
		}
		t.Errorf("%s:%d:%d: [%s] %s", rel, d.Position.Line, d.Position.Column, d.Check, d.Message)
	}
}

// BenchmarkLint splits the cost of `lvlint ./...`: one module load
// (parse and type-check), each check alone over one shared load, and
// the whole lint (a load plus every check), which is TestSelfLint's
// work. scripts/bench.sh runs it at -benchtime 1x -count 10.
func BenchmarkLint(b *testing.B) {
	pkgs, _, module := loadModule(b)
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loadModule(b)
		}
	})
	for _, a := range analyze.All() {
		b.Run("check="+a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analyze.Run(pkgs, []*analyze.Analyzer{a}, module)
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh, _, _ := loadModule(b)
			analyze.Run(fresh, analyze.All(), module)
		}
	})
}
