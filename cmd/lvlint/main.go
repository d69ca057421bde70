// Command lvlint runs the repo's static-analysis suite
// (internal/analyze) over the module: determinism taint flow, unit
// discipline, exhaustive scheme switches, dropped errors, lock
// discipline and panic hygiene — the invariants the paper's relative
// energy/runtime numbers depend on.
//
// Usage:
//
//	lvlint ./...                # whole module (what scripts/verify.sh runs)
//	lvlint ./internal/sim       # one package directory
//	lvlint -checks detflow,unitflow ./...
//	lvlint -list                # describe the checks
//	lvlint -json ./...          # findings as a JSON array on stdout
//	lvlint -fix ./...           # apply mechanically safe rewrites
//
// Findings print as file:line:col: [check] message; the exit status is
// 1 when there are findings, 2 on a load error. Suppress a finding with
// a trailing or preceding comment:
//
//	//lvlint:ignore <check> <reason>
//
// A suppression that shields no finding of a running check is itself
// reported, so every suppression left in the tree pins a real finding.
//
// Every run is cold: module packages are type-checked from source and
// the standard library is read from the export data that one
// `go list -export -deps` call reports, so the go command must be on
// PATH. A whole-module run takes about 1.4 s on a 2-CPU machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analyze"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lvlint: ")
	var (
		checks  = flag.String("checks", "", "comma-separated checks to run (default: all)")
		list    = flag.Bool("list", false, "list the available checks and exit")
		quiet   = flag.Bool("q", false, "print only the finding count")
		jsonOut = flag.Bool("json", false, "print findings as a JSON array")
		fix     = flag.Bool("fix", false, "apply suggested fixes to the source files")
	)
	flag.Parse()

	analyzers, err := analyze.ByName(*checks)
	if err != nil {
		log.Fatal(err)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		log.Fatal(err)
	}
	module, err := analyze.ModulePath(root)
	if err != nil {
		log.Fatal(err)
	}

	pkgs, err := load(root, module, args)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	diags := analyze.Run(pkgs, analyzers, module)

	if *fix {
		fixed, err := analyze.ApplyFixes(fsetOf(pkgs), diags)
		if err != nil {
			log.Fatal(err)
		}
		names := make([]string, 0, len(fixed))
		for name := range fixed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := os.WriteFile(name, fixed[name], 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("lvlint: fixed %s\n", relPath(name))
		}
		if len(fixed) == 0 {
			fmt.Println("lvlint: no applicable fixes")
		}
		return
	}

	emit(diags, *quiet, *jsonOut)
}

// emit prints the findings and exits non-zero when there are any.
func emit(diags []analyze.Diagnostic, quiet, jsonOut bool) {
	if jsonOut {
		type jsonDiag struct {
			Check   string `json:"check"`
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Message string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Check: d.Check, File: relPath(d.Position.Filename),
				Line: d.Position.Line, Column: d.Position.Column, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	for _, d := range diags {
		if !quiet {
			fmt.Printf("%s:%d:%d: [%s] %s\n", relPath(d.Position.Filename), d.Position.Line, d.Position.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Printf("lvlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fsetOf(pkgs []*analyze.Package) *token.FileSet {
	for _, p := range pkgs {
		if p.Fset != nil {
			return p.Fset
		}
	}
	return nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// load resolves the directory patterns against one shared loader so
// packages type-check once even when patterns overlap. A pattern is a
// directory, optionally ending in /... for the whole subtree.
func load(root, module string, patterns []string) ([]*analyze.Package, error) {
	// The loader indexes the whole module so cross-package imports
	// resolve no matter which subset was requested.
	loader := analyze.NewLoader(module)
	all, err := loader.LoadTree(root)
	if err != nil {
		return nil, err
	}
	byDir := map[string]*analyze.Package{}
	for _, p := range all {
		byDir[p.Dir] = p
	}

	var (
		out  []*analyze.Package
		seen = map[string]bool{}
	)
	add := func(p *analyze.Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, p := range all {
			if p.Dir == abs || (recursive && strings.HasPrefix(p.Dir+string(filepath.Separator), abs+string(filepath.Separator))) {
				add(p)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	return out, nil
}

func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
