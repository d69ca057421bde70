// Package analyze is a small static-analysis framework on the standard
// library's go/parser + go/ast + go/types — no golang.org/x/tools — that
// enforces simulator invariants the paper's evaluation depends on:
// determinism (a Monte Carlo sweep is only citable if it replays
// bit-for-bit), unit discipline (the 760 mV Vccmin and the 400 mV
// operating point differ by a factor a single mV/V slip destroys),
// exhaustive scheme dispatch, error hygiene, lock discipline and
// panic-free library code.
//
// A check is an Analyzer; the driver loads every package of the module
// (loader.go), runs each analyzer's module-wide Prepare step
// (interprocedural summaries live there), runs each analyzer once per
// package in package order, and filters the resulting diagnostics
// through //lvlint:ignore suppression comments, reporting any that
// shield nothing. Flow-sensitive checks build on the CFG/dataflow
// framework in the flow subpackage. cmd/lvlint is the CLI front end.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"iter"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analyze/flow"
)

// Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the check in output and in //lvlint:ignore
	// comments. Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by `lvlint -list`.
	Doc string
	// Prepare, if set, runs once per module before any Run, with every
	// package loaded. Its return value is handed to each Pass as
	// Shared; interprocedural analyses compute call summaries here.
	Prepare func(*Module) any
	// Run executes the check over one package.
	Run func(*Pass)
}

// Module is the whole loaded module, handed to Analyzer.Prepare.
type Module struct {
	// Path is the module path ("repro").
	Path string
	// Pkgs are every loaded package, dependency-first.
	Pkgs []*Package
	// Fset positions all of them.
	Fset *token.FileSet
}

// Sources adapts the loaded packages to the flow package's function
// index input.
func (m *Module) Sources() []*flow.Source {
	out := make([]*flow.Source, 0, len(m.Pkgs))
	for _, p := range m.Pkgs {
		out = append(out, &flow.Source{Path: p.Path, Files: p.Files, Info: p.Info})
	}
	return out
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the loaded package under analysis.
	Pkg *Package
	// Module is the module path ("repro"); analyzers use it to separate
	// first-party enums and helpers from the standard library.
	Module string
	// Shared is the analyzer's Prepare result (nil without Prepare).
	Shared any

	diags *[]Diagnostic
}

// Files returns the package's syntax trees.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checking facts.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the package's *types.Package.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Check    string         `json:"check"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Check, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Detflow,
		UnitCheck,
		UnitFlow,
		Exhaustive,
		ErrDrop,
		LockGuard,
		LockBalance,
		DeferLoop,
		NoPanic,
		GoLeak,
		CtxFlow,
		ChanFlow,
		WGBalance,
		SharedCapture,
		Eventflow,
		Serveflow,
		Frameflow,
		Hotalloc,
	}
}

// ByName resolves a comma-separated list of analyzer names against the
// full suite. An empty list selects everything.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analyze: unknown check %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the suite's check names in order.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// Run executes the analyzers over the loaded packages: each Prepare
// step once over the whole module, then every analyzer over each
// package in turn. It applies //lvlint:ignore suppression, reports
// stale suppressions, and returns the diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, module string) []Diagnostic {
	fset := fsetOf(pkgs)
	mod := &Module{Path: module, Pkgs: pkgs, Fset: fset}
	shared := make([]any, len(analyzers))
	for i, a := range analyzers {
		if a.Prepare != nil {
			shared[i] = a.Prepare(mod)
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: fset, Pkg: pkg, Module: module, Shared: shared[i], diags: &diags})
		}
	}
	diags = suppress(diags, pkgs, fset, analyzers)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Check < b.Check
	})
	return diags
}

func fsetOf(pkgs []*Package) *token.FileSet {
	for _, p := range pkgs {
		if p.Fset != nil {
			return p.Fset
		}
	}
	return token.NewFileSet()
}

// ignoreRe matches suppression comments:
//
//	//lvlint:ignore detflow reproduced from the paper's listing
//	//lvlint:ignore nopanic,errdrop reason text
//
// The reason is free text; a check list of "all" matches every check.
var ignoreRe = regexp.MustCompile(`^//\s*lvlint:ignore\s+([a-z,]+)(?:\s+(.*))?$`)

// suppress drops diagnostics covered by an //lvlint:ignore comment on
// the same line or on the line directly above (a standalone comment),
// and reports each comment naming a running check that shields no
// finding of it. A stale suppression hides nothing today and would
// silently hide a future finding; a live one pins a real finding, so a
// change to its check that loses the finding fails lint. "all" names
// every check and is judged only when the whole suite runs.
func suppress(diags []Diagnostic, pkgs []*Package, fset *token.FileSet, running []*Analyzer) []Diagnostic {
	type ignore struct {
		pos   token.Position
		check string
		used  bool
	}
	var ignores []*ignore
	// file -> line -> the ignores covering that line.
	byLine := map[string]map[int][]*ignore{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					lines := byLine[pos.Filename]
					if lines == nil {
						lines = map[int][]*ignore{}
						byLine[pos.Filename] = lines
					}
					for _, check := range strings.Split(m[1], ",") {
						// The comment shields its own line (trailing
						// comment) and the next line (comment above).
						ig := &ignore{pos: pos, check: check}
						ignores = append(ignores, ig)
						lines[pos.Line] = append(lines[pos.Line], ig)
						lines[pos.Line+1] = append(lines[pos.Line+1], ig)
					}
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		shielded := false
		for _, ig := range byLine[d.Position.Filename][d.Position.Line] {
			if ig.check == d.Check || ig.check == "all" {
				ig.used, shielded = true, true
			}
		}
		if !shielded {
			kept = append(kept, d)
		}
	}
	judged := map[string]bool{"all": true}
	for _, a := range running {
		judged[a.Name] = true
	}
	for _, name := range Names() {
		judged["all"] = judged["all"] && judged[name]
	}
	for _, ig := range ignores {
		if judged[ig.check] && !ig.used {
			kept = append(kept, Diagnostic{Check: ig.check, Position: ig.pos,
				Message: fmt.Sprintf("//lvlint:ignore %s shields no finding on this line or the next; delete it", ig.check)})
		}
	}
	return kept
}

// inspect walks every file of the pass with fn; returning false prunes
// the subtree.
func inspect(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files() {
		ast.Inspect(f, fn)
	}
}

// funcDecls yields every function declaration of the pass that has a
// body, file by file in source order.
func (p *Pass) funcDecls() iter.Seq[*ast.FuncDecl] {
	return func(yield func(*ast.FuncDecl) bool) {
		for _, f := range p.Files() {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && !yield(fd) {
					return
				}
			}
		}
	}
}

// inModule reports whether an import path belongs to the module.
func inModule(path, module string) bool {
	return path == module || strings.HasPrefix(path, module+"/")
}

// pkgIn reports whether an import path lies in one of the scopes: a
// scope is one or more whole path segments ("dist", "internal/sim")
// and covers every package whose path contains it, so subpackages are
// in scope too.
func pkgIn(path string, scopes ...string) bool {
	path = "/" + path + "/"
	for _, s := range scopes {
		if strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// pkgIs reports whether an import path matches pkg: an exact import
// path ("os", "math/rand"), or a pkgIn scope written with a leading
// slash ("/event" matches every package with an "event" segment, so
// the fixtures' miniature kernels stand in for the real ones).
func pkgIs(path, pkg string) bool {
	if scope, ok := strings.CutPrefix(pkg, "/"); ok {
		return pkgIn(path, scope)
	}
	return path == pkg
}

// namedObj returns the declaration of t's named type, stripping at
// most one pointer; nil for unnamed and predeclared types.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj()
	}
	return nil
}

// isNamed reports whether t, or the type it points to, is the named
// type pkg.name, with pkg as in pkgIs.
func isNamed(t types.Type, pkg, name string) bool {
	obj := namedObj(t)
	return obj != nil && obj.Name() == name && pkgIs(obj.Pkg().Path(), pkg)
}

// pkgFunc reports whether the call's static callee is the
// package-level function pkg.name, with pkg as in pkgIs.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	fn := flow.Callee(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Signature().Recv() == nil &&
		fn.Name() == name && pkgIs(fn.Pkg().Path(), pkg)
}

// methodCall resolves a method call x.m(...) to its static callee and
// the receiver expression x; fn is nil for any other call and for the
// predeclared error.Error.
func methodCall(info *types.Info, call *ast.CallExpr) (fn *types.Func, x ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn = flow.Callee(info, call)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Signature().Recv() == nil {
		return nil, nil
	}
	return fn, sel.X
}
