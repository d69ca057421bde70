package analyze

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive checks that every switch over a first-party enum — a named
// type with two or more package-level constants declared in this module,
// like sim.Scheme or the scheme constants in internal/schemes and
// internal/dvfs — either covers every declared constant or carries a
// default case. Adding a scheme constant without updating every dispatch
// site otherwise silently evaluates the new scheme as a zero value.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over module enum types must cover every constant or have a default",
	Run:  runExhaustive,
}

func runExhaustive(pass *Pass) {
	info := pass.TypesInfo()
	inspect(pass, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tagType := info.TypeOf(sw.Tag)
		if tagType == nil {
			return true
		}
		named, ok := tagType.(*types.Named)
		if !ok {
			return true
		}
		tpkg := named.Obj().Pkg()
		if tpkg == nil || !inModule(tpkg.Path(), pass.Module) {
			return true
		}
		consts := enumConstsOf(named, tpkg)
		if len(consts) < 2 {
			return true
		}
		covered := map[string]bool{}
		hasDefault := false
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
				continue
			}
			for _, e := range cc.List {
				if tv, ok := info.Types[e]; ok && tv.Value != nil {
					covered[tv.Value.ExactString()] = true
				}
			}
		}
		if hasDefault {
			return true
		}
		var missing []string
		for _, c := range consts {
			if !covered[c.Val().ExactString()] {
				missing = append(missing, c.Name())
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			pass.Reportf(sw.Pos(), "switch over %s misses %s and has no default",
				named.Obj().Name(), strings.Join(missing, ", "))
		}
		return true
	})
}

// enumConstsOf returns the package-level constants of the named type,
// deterministically ordered by name.
func enumConstsOf(named *types.Named, tpkg *types.Package) []*types.Const {
	scope := tpkg.Scope()
	names := scope.Names() // already sorted
	var consts []*types.Const
	for _, name := range names {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			consts = append(consts, c)
		}
	}
	return consts
}
