package analyze

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyze/flow"
)

// Eventflow enforces the event kernel's determinism and wiring
// protocol inside handlers. A handler is a function literal installed
// as a Port's OnRecv hook or passed to Engine.Schedule; it runs at a
// simulated timestamp, so anything that observes the host — wall-clock
// time, the global math/rand stream, map iteration order — makes the
// run unreplayable. Two more rules catch wiring bugs: scheduling at
// `at - d` lands in the past (the engine clamps it to Now, silently
// reordering events), and a port created in a function that neither
// Connects it nor hands it to anyone can only ever return
// ErrUnconnected from Send.
//
// Event types and functions are matched by name (Port, Engine, Time,
// NewPort, Connect) in any package with an "event" path segment, so
// the fixtures' miniature kernel exercises the same code paths as
// internal/event.
var Eventflow = &Analyzer{
	Name: "eventflow",
	Doc:  "determinism and wiring protocol inside event handlers",
	Run:  runEventflow,
}

func runEventflow(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		handlers, set := eventHandlers(info, file)
		for _, h := range handlers {
			checkEventHandler(pass, info, h, set)
		}
	}
	for fd := range pass.funcDecls() {
		checkPortWiring(pass, info, fd)
	}
}

// eventHandlers collects the function literals that run at simulated
// time: OnRecv hook assignments and Engine.Schedule arguments.
func eventHandlers(info *types.Info, file *ast.File) ([]*ast.FuncLit, map[*ast.FuncLit]bool) {
	var out []*ast.FuncLit
	set := map[*ast.FuncLit]bool{}
	add := func(lit *ast.FuncLit) {
		if lit != nil && !set[lit] {
			set[lit] = true
			out = append(out, lit)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "OnRecv" || !isNamed(info.TypeOf(sel.X), "/event", "Port") {
					continue
				}
				if i < len(n.Rhs) {
					lit, _ := n.Rhs[i].(*ast.FuncLit)
					add(lit)
				}
			}
		case *ast.CallExpr:
			if isEngineSchedule(info, n) {
				for _, arg := range n.Args {
					lit, _ := arg.(*ast.FuncLit)
					add(lit)
				}
			}
		}
		return true
	})
	return out, set
}

// isEngineSchedule matches eng.Schedule(at, fn) on an event Engine.
func isEngineSchedule(info *types.Info, call *ast.CallExpr) bool {
	fn, _ := methodCall(info, call)
	return fn != nil && fn.Name() == "Schedule" && isNamed(fn.Signature().Recv().Type(), "/event", "Engine")
}

// checkEventHandler walks one handler body. Nested literals that are
// themselves registered handlers are skipped — they get their own walk.
func checkEventHandler(pass *Pass, info *types.Info, lit *ast.FuncLit, set map[*ast.FuncLit]bool) {
	vals := flow.NewFuncValues(info, lit.Body)
	timeParams := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		if !isNamed(info.TypeOf(field.Type), "/event", "Time") {
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				timeParams[obj] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit && set[inner] {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok && !keyCollect(n) {
				pass.Reportf(n.Pos(), "map iteration order inside an event handler varies between runs; collect and sort the keys instead")
			}
		case *ast.CallExpr:
			fn := flow.Callee(info, n)
			switch kind := sourceOf(fn); {
			case kind == taintClock:
				pass.Reportf(n.Pos(), "wall-clock time.%s inside an event handler breaks replay; use the handler's simulated timestamp", fn.Name())
			case kind == taintRand:
				pass.Reportf(n.Pos(), "unseeded global %s.%s inside an event handler draws from shared state; use a per-run rand.New(rand.NewSource(seed))", fn.Pkg().Path(), fn.Name())
			case isEngineSchedule(info, n) && len(n.Args) > 0:
				if at := pastTick(info, vals, n.Args[0], timeParams); at != "" {
					pass.Reportf(n.Pos(), "schedules at %s minus an offset — a past tick is silently clamped to Now, reordering events; add the delay to the current time instead", at)
				}
			}
		}
		return true
	})
}

// keyCollect recognizes the sanctioned collect-then-sort idiom, the
// one the finding's message asks for:
//
//	for k := range m {
//		keys = append(keys, k)
//	}
//
// Append order does not matter here (the slice is sorted before use),
// so the map range is harmless; reporting it would flag the very loop
// that fixes the finding.
func keyCollect(rs *ast.RangeStmt) bool {
	if rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	dst, okDst := call.Args[0].(*ast.Ident)
	arg, okArg := call.Args[1].(*ast.Ident)
	return okDst && okArg && dst.Name == lhs.Name && arg.Name == key.Name
}

// pastTick reports the time parameter's name when the schedule
// argument resolves to `at - d` with at a handler Time parameter.
func pastTick(info *types.Info, vals *flow.FuncValues, arg ast.Expr, timeParams map[types.Object]bool) string {
	bin, ok := vals.Resolve(arg).(*ast.BinaryExpr)
	if !ok || bin.Op != token.SUB {
		return ""
	}
	obj := rootObj(info, bin.X)
	if obj == nil || !timeParams[obj] {
		return ""
	}
	return obj.Name()
}

// checkPortWiring flags Send on a port that this function created with
// NewPort but neither Connected nor let escape (returned, stored,
// passed along) — such a Send can only return ErrUnconnected.
func checkPortWiring(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	type portState struct {
		def       token.Pos
		connected bool
		escaped   bool
		sends     []token.Pos
	}
	ports := map[types.Object]*portState{}
	// Pass 1: find NewPort-defined locals.
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !pkgFunc(info, call, "/event", "NewPort") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				ports[obj] = &portState{def: id.Pos()}
			}
		}
		return true
	})
	if len(ports) == 0 {
		return
	}
	// Pass 2: classify every use. A use that is neither the defining
	// ident, a method selector, nor a Connect argument is an escape.
	selParent := map[*ast.Ident]*ast.SelectorExpr{}
	connectArg := map[*ast.Ident]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				selParent[id] = n
			}
		case *ast.CallExpr:
			if pkgFunc(info, n, "/event", "Connect") {
				for _, arg := range n.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						connectArg[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		st := ports[info.Uses[id]]
		if st == nil {
			return true
		}
		switch {
		case connectArg[id]:
			st.connected = true
		case selParent[id] != nil:
			if selParent[id].Sel.Name == "Send" {
				st.sends = append(st.sends, selParent[id].Pos())
			}
		default:
			st.escaped = true
		}
		return true
	})
	for _, obj := range sortedObjs(ports) {
		st := ports[obj]
		if st.connected || st.escaped {
			continue
		}
		for _, pos := range st.sends {
			pass.Reportf(pos, "%s.Send on a port created here but never Connected in this function — it can only return ErrUnconnected", obj.Name())
		}
	}
}

// sortedObjs returns map keys in declaration order for deterministic
// reporting.
func sortedObjs[V any](m map[types.Object]V) []types.Object {
	out := make([]types.Object, 0, len(m))
	for obj := range m {
		out = append(out, obj)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
