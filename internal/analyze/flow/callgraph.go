package flow

import (
	"go/ast"
	"go/types"
	"sort"
)

// Source is one type-checked package handed to the function index —
// the minimal slice of analyze.Package the flow layer needs, kept as
// its own type so flow does not import the driver.
type Source struct {
	// Path is the package import path (diagnostics and ordering).
	Path string
	// Files are the package's syntax trees.
	Files []*ast.File
	// Info is the package's type-checking facts.
	Info *types.Info
}

// FuncInfo is one module function the index can resolve calls to.
type FuncInfo struct {
	// Obj is the type checker's object for the function; call sites
	// resolve to it through Uses.
	Obj *types.Func
	// Decl is the syntax; Decl.Body may be nil for assembly stubs.
	Decl *ast.FuncDecl
	// Info is the type info of the declaring package (needed to walk
	// the body, which may live in a different package than the call).
	Info *types.Info
	// Path is the declaring package's import path.
	Path string
}

// Index resolves call expressions to module-local function bodies, the
// basis for interprocedural summaries. Functions declared outside the
// indexed sources (standard library) resolve to nil and analyses fall
// back to their conservative default.
type Index struct {
	byObj map[*types.Func]*FuncInfo
	funcs []*FuncInfo // sorted by declaration position: deterministic
}

// NewIndex builds a function index over the given packages.
func NewIndex(srcs []*Source) *Index {
	ix := &Index{byObj: map[*types.Func]*FuncInfo{}}
	for _, src := range srcs {
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Info: src.Info, Path: src.Path}
				ix.byObj[obj] = fi
				ix.funcs = append(ix.funcs, fi)
			}
		}
	}
	sort.Slice(ix.funcs, func(i, j int) bool {
		if ix.funcs[i].Path != ix.funcs[j].Path {
			return ix.funcs[i].Path < ix.funcs[j].Path
		}
		return ix.funcs[i].Decl.Pos() < ix.funcs[j].Decl.Pos()
	})
	return ix
}

// Funcs returns every indexed function in deterministic order.
func (ix *Index) Funcs() []*FuncInfo { return ix.funcs }

// Lookup resolves a function object to its indexed body, or nil.
func (ix *Index) Lookup(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return ix.byObj[obj]
}

// Callee resolves the static callee of a call expression — a function
// or a method (interface methods included) — or returns nil for calls
// through function values, builtins and conversions. Explicit generic
// instantiation (F[T](x), pkg.F[K, V](x)) resolves to the generic
// function. It is the one place lvlint decides which function a call
// names.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Fixpoint iterates update over every indexed function, in order, until
// no update reports a change (or a generous round bound is hit — the
// module's call graph is shallow; the bound only guards against a
// non-monotone update function looping forever). update returns true
// when it changed its function's summary.
func (ix *Index) Fixpoint(update func(*FuncInfo) bool) {
	for rounds := 0; rounds < 32; rounds++ {
		changed := false
		for _, f := range ix.funcs {
			if update(f) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// InspectShallow walks the AST below n without descending into nested
// function literals: their bodies execute when called, not where they
// are written, so flow-sensitive analyses of the enclosing function
// must not see them as straight-line code.
func InspectShallow(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// FuncLits collects the function literals directly contained in n
// (not those nested inside other literals), in source order — each is
// analyzed as its own function.
func FuncLits(n ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	if n == nil {
		return out
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && m != n {
			out = append(out, lit)
			return false
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// Bodies enumerates every function body in a file — declarations plus
// all (transitively) nested function literals — as (name, funcType,
// body) triples in source order. Analyses iterate this to cover
// goroutine closures and deferred literals.
type Body struct {
	// Name is the enclosing declaration's name (literals inherit it,
	// suffixed for messages like "func literal in Run").
	Name string
	// Decl is the enclosing function declaration.
	Decl *ast.FuncDecl
	// Type is the function's own signature syntax.
	Type *ast.FuncType
	// Block is the body to analyze.
	Block *ast.BlockStmt
	// Lit is non-nil when this body is a function literal.
	Lit *ast.FuncLit
}

// BodiesOf returns the declaration's body followed by every nested
// function-literal body, in source order.
func BodiesOf(fd *ast.FuncDecl) []Body {
	var out []Body
	if fd.Body == nil {
		return out
	}
	out = append(out, Body{Name: fd.Name.Name, Decl: fd, Type: fd.Type, Block: fd.Body})
	var lits func(n ast.Node)
	lits = func(n ast.Node) {
		for _, l := range FuncLits(n) {
			out = append(out, Body{Name: fd.Name.Name, Decl: fd, Type: l.Type, Block: l.Body, Lit: l})
			lits(l.Body)
		}
	}
	lits(fd.Body)
	sort.Slice(out, func(i, j int) bool { return out[i].Block.Pos() < out[j].Block.Pos() })
	return out
}
