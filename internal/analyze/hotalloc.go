package analyze

import (
	"go/ast"
	"go/types"

	"repro/internal/analyze/flow"
)

// Hotalloc polices the per-access hot paths of the core model —
// packages whose import path ends in cpu, ffw, bbr, core, cache or
// schemes. Every cache
// access walks these loops, so a map or slice literal, make, new,
// append or explicit interface boxing inside one turns a Monte Carlo
// campaign's inner loop into an allocator benchmark. Value-typed
// array literals ([N]T{}) are stack zeroing, not allocation, and stay
// silent.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocations and interface boxing inside the core model's per-access loops",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	if !pkgIn(pass.Pkg.Path, hotPackages...) {
		return
	}
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		for _, b := range flow.BodiesOf(fd) {
			for _, blk := range flow.New(b.Block).Blocks {
				if !blk.InLoop {
					continue
				}
				for _, node := range blk.Nodes {
					checkHotNode(pass, info, node)
				}
			}
		}
	}
}

// hotPackages are the package scopes (see pkgIn) of the per-access
// layers.
// workload stays out because ByName's error path appends in a loop
// that is off the hot path.
var hotPackages = []string{"cpu", "ffw", "bbr", "core", "cache", "schemes"}

// checkHotNode reports allocation sites in one in-loop CFG node.
// Nested function literals are skipped — they are separate bodies.
func checkHotNode(pass *Pass, info *types.Info, n ast.Node) {
	flow.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			switch info.TypeOf(m).Underlying().(type) {
			case *types.Map:
				pass.Reportf(m.Pos(), "map literal inside a per-access loop allocates every iteration; hoist it or reuse a cleared map")
			case *types.Slice:
				pass.Reportf(m.Pos(), "slice literal inside a per-access loop allocates every iteration; hoist the backing storage out of the loop")
			}
			// Array literals are value zeroing, not allocation: silent.
		case *ast.CallExpr:
			switch {
			case builtinCall(info, m, "make"):
				pass.Reportf(m.Pos(), "make inside a per-access loop allocates every iteration; hoist the buffer and reslice it")
			case builtinCall(info, m, "new"):
				pass.Reportf(m.Pos(), "new inside a per-access loop allocates every iteration; declare the value outside and reset it")
			case builtinCall(info, m, "append"):
				pass.Reportf(m.Pos(), "append inside a per-access loop can grow the backing array every iteration; preallocate with the known capacity")
			case isInterfaceBox(info, m):
				pass.Reportf(m.Pos(), "conversion to an interface inside a per-access loop boxes the value on the heap every iteration; keep it concrete")
			}
		}
		return true
	})
}

// isInterfaceBox matches an explicit conversion whose target is an
// interface type and whose operand is concrete.
func isInterfaceBox(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return false
	}
	if !types.IsInterface(tv.Type) {
		return false
	}
	argT := info.TypeOf(call.Args[0])
	return argT != nil && !types.IsInterface(argT)
}
