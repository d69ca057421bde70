package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoPanic forbids panic in library (non-main) packages outside the two
// sanctioned escape hatches: init functions and Must*/must* helpers
// whose name advertises the panic. A panic that crosses the library
// boundary takes the whole sweep down with it; library code should
// return errors the experiment driver can count as yield events or
// propagate.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc:  "no panic in library packages outside init and Must helpers",
	Run:  runNoPanic,
}

func runNoPanic(pass *Pass) {
	if pass.TypesPkg().Name() == "main" {
		return
	}
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		name := fd.Name.Name
		if name == "init" || strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if obj, ok := info.Uses[id]; !ok || obj != types.Universe.Lookup("panic") {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library function %s; return an error, or move the panic behind a Must helper", name)
			return true
		})
	}
}
