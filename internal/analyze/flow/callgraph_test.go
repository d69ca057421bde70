package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheck parses and type-checks one file as package p.
func typecheck(t *testing.T, src string) *Source {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	return &Source{Path: "p", Files: []*ast.File{f}, Info: info}
}

const cgSrc = `package p

type T struct{ n int }

func (t *T) Get() int { return t.n }

func a() int { return b() + 1 }

func b() int { return 2 }

func id[V any](v V) V { return v }

func pair[K comparable, V any](k K, v V) {}

func uses(t *T) int {
	f := func() int { return a() }
	pair[string, int]("k", 1)
	return f() + t.Get() + id[int](0)
}
`

func TestIndexAndLookup(t *testing.T) {
	src := typecheck(t, cgSrc)
	ix := NewIndex([]*Source{src})
	names := map[string]bool{}
	for _, fi := range ix.Funcs() {
		names[fi.Obj.Name()] = true
		if ix.Lookup(fi.Obj) != fi {
			t.Fatalf("Lookup(%s) does not round-trip", fi.Obj.Name())
		}
	}
	for _, want := range []string{"Get", "a", "b", "uses"} {
		if !names[want] {
			t.Fatalf("index is missing %s (have %v)", want, names)
		}
	}
	if ix.Lookup(nil) != nil {
		t.Fatal("Lookup(nil) must be nil")
	}
}

func TestCalleeResolution(t *testing.T) {
	src := typecheck(t, cgSrc)
	var calls []*ast.CallExpr
	ast.Inspect(src.Files[0], func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	got := map[string]bool{}
	indirect := 0
	for _, c := range calls {
		if fn := Callee(src.Info, c); fn != nil {
			got[fn.Name()] = true
		} else {
			indirect++
		}
	}
	// Explicit instantiation (id[int], pair[string, int]) resolves to
	// the generic function.
	for _, want := range []string{"a", "b", "Get", "id", "pair"} {
		if !got[want] {
			t.Fatalf("Callee missed %s (resolved %v)", want, got)
		}
	}
	// f() is a call through a function value: must stay unresolved.
	if indirect == 0 {
		t.Fatal("indirect call through a function value must not resolve")
	}
}

func TestFixpointPropagates(t *testing.T) {
	src := typecheck(t, cgSrc)
	ix := NewIndex([]*Source{src})
	// Toy summary: "depth" of each function; b=1, a=depth(b)+1 — a's
	// value is only right if the fixpoint re-runs a after b changed.
	depth := map[string]int{}
	ix.Fixpoint(func(fi *FuncInfo) bool {
		var d int
		switch fi.Obj.Name() {
		case "b":
			d = 1
		case "a":
			d = depth["b"] + 1
		default:
			d = 0
		}
		if depth[fi.Obj.Name()] == d {
			return false
		}
		depth[fi.Obj.Name()] = d
		return true
	})
	if depth["a"] != 2 {
		t.Fatalf("fixpoint did not propagate b's summary into a: depth=%v", depth)
	}
}

func TestInspectShallowAndFuncLits(t *testing.T) {
	src := typecheck(t, `package p
func f() {
	x := 1
	g := func() {
		y := 2
		h := func() { _ = y }
		h()
	}
	g()
	_ = x
}
`)
	var fd *ast.FuncDecl
	for _, d := range src.Files[0].Decls {
		fd = d.(*ast.FuncDecl)
	}
	// InspectShallow must see x but not y.
	seen := map[string]bool{}
	InspectShallow(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			seen[id.Name] = true
		}
		return true
	})
	if !seen["x"] || seen["y"] {
		t.Fatalf("InspectShallow leaked into the literal: %v", seen)
	}
	// FuncLits returns only the directly-nested literal.
	if lits := FuncLits(fd.Body); len(lits) != 1 {
		t.Fatalf("FuncLits = %d, want 1 (h is nested inside g)", len(lits))
	}
	// BodiesOf flattens all three bodies in source order.
	bodies := BodiesOf(fd)
	if len(bodies) != 3 {
		t.Fatalf("BodiesOf = %d bodies, want f, g-literal, h-literal", len(bodies))
	}
	for i := 1; i < len(bodies); i++ {
		if bodies[i].Block.Pos() <= bodies[i-1].Block.Pos() {
			t.Fatal("BodiesOf not in source order")
		}
		if bodies[i].Lit == nil {
			t.Fatal("nested bodies must carry their literal")
		}
	}
	if bodies[0].Lit != nil {
		t.Fatal("the declaration body has no literal")
	}
}
