package analyze

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestMain fails on a golden file that no test checked.
func TestMain(m *testing.M) { golden.Main(m, nil) }

// TestFixtures runs each analyzer over its testdata tree and compares
// the diagnostics against `// want "substring"` expectations: every
// want line must produce a diagnostic containing the substring, and
// every diagnostic must be wanted. Lines relying on //lvlint:ignore
// carry no want comment — a diagnostic there fails the test, proving
// the suppression path.
func TestFixtures(t *testing.T) {
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			var mine []*Package
			for _, p := range pkgs {
				if strings.HasPrefix(p.Path, "test/"+a.Name+"/") {
					mine = append(mine, p)
				}
			}
			if len(mine) == 0 {
				t.Fatalf("no fixture packages under testdata/%s", a.Name)
			}
			diags := Run(mine, []*Analyzer{a}, "test")

			type key struct {
				file string
				line int
			}
			wants := map[key][]string{}
			for _, p := range mine {
				for _, f := range p.Files {
					name := loader.Fset.Position(f.Pos()).Filename
					for line, substr := range wantComments(t, name) {
						wants[key{name, line}] = append(wants[key{name, line}], substr)
					}
				}
			}

			matched := map[key]map[string]bool{}
			for _, d := range diags {
				k := key{d.Position.Filename, d.Position.Line}
				found := false
				for _, w := range wants[k] {
					if strings.Contains(d.Message, w) {
						if matched[k] == nil {
							matched[k] = map[string]bool{}
						}
						matched[k][w] = true
						found = true
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for k, subs := range wants {
				for _, w := range subs {
					if !matched[k][w] {
						t.Errorf("%s:%d: expected a diagnostic containing %q, got none", k.file, k.line, w)
					}
				}
			}
		})
	}
}

var wantRe = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

// wantComments returns line -> expected-substring for one fixture file.
func wantComments(t *testing.T, path string) map[int]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]string{}
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s, err := strconv.Unquote(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want string %s", path, i+1, m[1])
		}
		out[i+1] = s
	}
	return out
}

// TestUnitOf pins the suffix-boundary rules the unitcheck analyzer
// depends on.
func TestUnitOf(t *testing.T) {
	cases := []struct {
		name string
		unit string // "" = no unit
	}{
		{"VoltageMV", "mV"},
		{"voltageMV", "mV"},
		{"mv", "mV"},
		{"vccminMV", "mV"},
		{"supplyVolts", "V"},
		{"FreqMHz", "MHz"},
		{"freqGHz", "GHz"},
		{"FO4DelayPS", "ps"},
		{"latency_ns", "ns"},
		{"EnergyPJ", "pJ"},
		{"radius", ""},     // lowercase "us" embedded in a word
		{"bonus", ""},      // ditto
		{"campus", ""},     // ditto
		{"DMV", ""},        // uppercase run, no camel boundary
		{"v", ""},          // bare single letters carry no unit
		{"chaos", ""},      // no recognized suffix
		{"TotalPages", ""}, // "es" is not a suffix; sanity
	}
	for _, c := range cases {
		u, ok := unitOf(c.name)
		got := ""
		if ok {
			got = u.name
		}
		if got != c.unit {
			t.Errorf("unitOf(%q) = %q, want %q", c.name, got, c.unit)
		}
	}
}

// TestByName covers selection and the unknown-check error.
func TestByName(t *testing.T) {
	as, err := ByName("detflow, nopanic")
	if err != nil || len(as) != 2 || as[0].Name != "detflow" || as[1].Name != "nopanic" {
		t.Fatalf("ByName: %v, %v", as, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("expected error for unknown check")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("empty list should select all: %v, %v", all, err)
	}
}

// TestLoaderRejectsOutsideImports pins the loader error for a package
// importing an unregistered module path.
func TestLoaderRejectsOutsideImports(t *testing.T) {
	dir := t.TempDir()
	src := "package a\n\nimport _ \"test/missing\"\n"
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("test")
	if _, err := loader.LoadTree(dir); err == nil {
		t.Fatal("expected load error for import outside the tree")
	}
}

// TestSuppressSameLineAndAbove pins both comment placements.
func TestSuppressSameLineAndAbove(t *testing.T) {
	mk := func(file string, line int, check string) Diagnostic {
		d := Diagnostic{Check: check}
		d.Position.Filename = file
		d.Position.Line = line
		return d
	}
	// Build a fake package with a parsed file containing ignores.
	dir := t.TempDir()
	src := `package a

func f() {
	//lvlint:ignore foo above-line reason
	_ = 1
	_ = 2 //lvlint:ignore bar same-line reason
	//lvlint:ignore all blanket
	_ = 3
}
`
	path := filepath.Join(dir, "a.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := []Diagnostic{
		mk(path, 5, "foo"),   // suppressed by the comment above
		mk(path, 5, "other"), // different check: survives
		mk(path, 6, "bar"),   // suppressed by the trailing comment
		mk(path, 8, "baz"),   // suppressed by "all"
	}
	out := suppress(in, pkgs, loader.Fset, nil)
	if len(out) != 1 || out[0].Check != "other" {
		t.Fatalf("suppress kept %v, want only the 'other' diagnostic", out)
	}
}

// TestStaleSuppression pins stale-suppression reporting: a comment
// naming a running check that shields none of its findings is itself
// reported at the comment; a used comment, a comment naming a check
// that is not running, and "all" under a partial suite are not.
func TestStaleSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package a

func f() {
	_ = 1 //lvlint:ignore foo shields the finding below
	_ = 2 //lvlint:ignore bar shields nothing
	_ = 3 //lvlint:ignore baz not running
	_ = 4 //lvlint:ignore all partial suite
}
`
	path := filepath.Join(dir, "a.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Check: "foo"}
	d.Position.Filename, d.Position.Line = path, 4
	running := []*Analyzer{{Name: "foo"}, {Name: "bar"}}
	out := suppress([]Diagnostic{d}, pkgs, loader.Fset, running)
	if len(out) != 1 || out[0].Check != "bar" || out[0].Position.Line != 5 || out[0].Position.Column != 8 {
		t.Fatalf("suppress returned %v, want one stale report for bar at 5:8", out)
	}
	if want := "//lvlint:ignore bar shields no finding on this line or the next; delete it"; out[0].Message != want {
		t.Fatalf("message %q, want %q", out[0].Message, want)
	}
}

// Ensure the String form stays stable for CLI output.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "detflow", Message: "m"}
	d.Position.Filename = "f.go"
	d.Position.Line = 3
	d.Position.Column = 7
	if got, want := d.String(), "f.go:3:7: [detflow] m"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	_ = fmt.Sprintf("%v", d)
}

// TestFixtureDigest runs every check over every fixture package in one
// Run and compares the complete finding list — check, position and
// exact message — with testdata/fixtures.golden. TestFixtures matches
// each check against its own fixtures by substring; this pins what the
// whole suite reports, cross-check findings included, so a refactor
// that changes any message or adds or loses any finding fails here.
// There is no update flag: on an intended change, install the new list
// with the printed cp command.
func TestFixtureDigest(t *testing.T) {
	loader := NewLoader("test")
	pkgs, err := loader.LoadTree("testdata")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range Run(pkgs, All(), "test") {
		rel, err := filepath.Rel("testdata", d.Position.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d:%d: [%s] %s", filepath.ToSlash(rel), d.Position.Line, d.Position.Column, d.Check, d.Message))
	}
	golden.Check(t, "testdata/fixtures.golden", []byte(strings.Join(got, "\n")+"\n"))
}
