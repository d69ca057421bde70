package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestSchemeTableCoversConstants parses the package source: every
// Scheme constant declared here must have exactly one table row, and
// every row must name a declared constant. With no switch over Scheme
// left, this is what catches a new constant that lacks a row.
func TestSchemeTableCoversConstants(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	consts := map[Scheme]string{} // value -> identifier
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Scheme" {
					continue
				}
				for i, id := range vs.Names {
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("%s: Scheme constant %s is not a string literal", fset.Position(id.Pos()), id.Name)
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					if prev, dup := consts[Scheme(v)]; dup {
						t.Errorf("%s and %s share the name %q", prev, id.Name, v)
					}
					consts[Scheme(v)] = id.Name
				}
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("found no Scheme constants")
	}

	rows := map[Scheme]int{}
	for _, r := range schemeTable {
		rows[r.name]++
	}
	for _, s := range AllSchemes() {
		if _, ok := consts[s]; !ok {
			t.Errorf("row %q names no declared Scheme constant", s)
		}
	}
	for v, id := range consts {
		if rows[v] != 1 {
			t.Errorf("%s (%q) has %d table rows, want 1", id, v, rows[v])
		}
	}
}

// TestSchemeOrder pins the presentation order the figures, the CLIs and
// the benchmark harness rely on.
func TestSchemeOrder(t *testing.T) {
	wantAll := []Scheme{DefectFree, Conventional, EightT, SimpleWdis, WilkersonPlus, FBA64, FBAPlus, IDC64, IDCPlus, FFWBBR, SECDEDScheme, BitFixScheme, WilkersonPlain}
	if got := AllSchemes(); !reflect.DeepEqual(got, wantAll) {
		t.Errorf("AllSchemes() = %v, want %v", got, wantAll)
	}
	wantEval := []Scheme{EightT, SimpleWdis, WilkersonPlus, FBAPlus, IDCPlus, FFWBBR}
	if got := EvalSchemes(); !reflect.DeepEqual(got, wantEval) {
		t.Errorf("EvalSchemes() = %v, want %v", got, wantEval)
	}
}

func TestCheckScheme(t *testing.T) {
	cases := []struct {
		s        Scheme
		dieSweep bool
		ok       bool
	}{
		{FFWBBR, false, true},
		{FFWBBR, true, true},
		{SECDEDScheme, false, true},
		{SECDEDScheme, true, false},
		{"zzz", false, false},
		{"", false, false},
	}
	for _, c := range cases {
		if err := CheckScheme(c.s, c.dieSweep); (err == nil) != c.ok {
			t.Errorf("CheckScheme(%q, %v) = %v, want ok=%v", c.s, c.dieSweep, err, c.ok)
		}
	}
}
