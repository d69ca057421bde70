package analyze

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyze/flow"
)

// UnitFlow upgrades the identifier-suffix unit convention from
// declaration-site (unitcheck) to flow-sensitive: a unit picked up from
// a name (VoltageMV, windowCycles) follows the value through
// assignments into unitless locals, through arithmetic, and across
// function boundaries via result summaries, so a cycles+ns sum or an
// mV*mV product is a finding even when neither operand's own name
// carries a suffix at the point of the mix.
//
// Division and multiplication legitimately change dimension
// (energy = power × time), so their results carry no unit — except the
// voltage×voltage special case, which this codebase has no use for
// (energies come from per-operation pJ tables, never from CV²).
// Additive operators never change dimension, so a +/- between two
// different known units is always a slip: same dimension means a
// missed conversion (ps into ns), different dimensions (cycles into
// ns) means the value model itself is wrong.
var UnitFlow = &Analyzer{
	Name:    "unitflow",
	Doc:     "unit tags (cycles, ns, mV, pJ) propagate through assignments, arithmetic and calls; mixes are findings",
	Prepare: prepareUnitFlow,
	Run:     runUnitFlow,
}

// unitFlowPaths limits the analysis to the packages where physical
// units live; elsewhere suffix collisions (the "us" in a prose-ish
// name) would drown the signal.
var unitFlowPaths = []string{"internal/energy", "internal/cpu", "internal/dvfs", "internal/cache", "internal/sim"}

// unitSummary records the unit a function's single result carries, as
// far as the flow analysis can tell ("" = unknown or mixed).
type unitSummary struct {
	result unit
	known  bool
}

type unitShared struct {
	ix   *flow.Index
	sums map[*types.Func]unitSummary
}

func prepareUnitFlow(mod *Module) any {
	sh := &unitShared{ix: flow.NewIndex(mod.Sources()), sums: map[*types.Func]unitSummary{}}
	sh.ix.Fixpoint(func(fi *flow.FuncInfo) bool {
		if fi.Decl.Body == nil || !pkgIn(fi.Path, unitFlowPaths...) {
			return false
		}
		sum, ok := summarizeUnits(sh, fi)
		if !ok {
			return false
		}
		old, had := sh.sums[fi.Obj]
		sh.sums[fi.Obj] = sum
		return !had || old != sum
	})
	return sh
}

// summarizeUnits runs the intra analysis for its side effect of
// computing the returned unit of single-result functions.
func summarizeUnits(sh *unitShared, fi *flow.FuncInfo) (unitSummary, bool) {
	ftype := fi.Decl.Type
	if ftype.Results == nil || len(ftype.Results.List) != 1 || len(ftype.Results.List[0].Names) > 1 {
		return unitSummary{}, false
	}
	// A result name or the function name itself may carry the unit
	// syntactically; the summary only needs to add flow knowledge.
	u := &unitFunc{shared: sh, info: fi.Info, fn: fi.Decl}
	u.analyze(nil)
	if u.retKnown && u.retUnit != (unit{}) {
		return unitSummary{result: u.retUnit, known: true}, true
	}
	return unitSummary{}, false
}

func runUnitFlow(pass *Pass) {
	if !pkgIn(pass.Pkg.Path, unitFlowPaths...) {
		return
	}
	sh := pass.Shared.(*unitShared)
	for fd := range pass.funcDecls() {
		u := &unitFunc{shared: sh, info: pass.TypesInfo(), fn: fd}
		u.analyze(pass)
	}
}

// unitEnv maps objects to the unit their current value carries.
type unitEnv map[types.Object]unit

// unitFunc is the per-function unit propagation.
type unitFunc struct {
	shared *unitShared
	info   *types.Info
	fn     *ast.FuncDecl
	pass   *Pass // nil during summary computation

	retUnit  unit
	retKnown bool
	retSet   bool
}

func (u *unitFunc) analyze(pass *Pass) {
	u.pass = pass
	// A unit survives a join only when both paths agree on it.
	lat := flow.MustMap[unitEnv](func(a, b unit) (unit, bool) { return a, a == b })
	lat.Init = func() unitEnv {
		env := unitEnv{}
		u.seedParams(env)
		return env
	}
	flow.Replay(flow.New(u.fn.Body), lat, flow.NodeStep(u.step))
}

func (u *unitFunc) seedParams(env unitEnv) {
	seed := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if un, ok := unitOf(name.Name); ok {
					if obj := u.info.Defs[name]; obj != nil {
						env[obj] = un
					}
				}
			}
		}
	}
	if u.fn.Recv != nil {
		seed(u.fn.Recv)
	}
	seed(u.fn.Type.Params)
}

func (u *unitFunc) step(n ast.Node, env unitEnv, emit bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			un, known := u.unitOfExpr(n.Rhs[i], env, emit)
			// Flow-only finding: the target name declares a unit, the
			// source name doesn't (unitcheck's case), but the flow does.
			if emit && known && !syntacticUnit(n.Rhs[i]) {
				if dst := exprUnitName(n.Lhs[i]); dst != "" {
					if du, ok := unitOf(dst); ok && du.dim == un.dim && du.name != un.name {
						u.reportf(n.Rhs[i].Pos(), "assigning a value carrying %s to %s (%s): %s/%s unit mismatch via dataflow",
							un.name, dst, du.name, un.name, du.name)
					}
				}
			}
			if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				obj := u.info.Defs[id]
				if obj == nil {
					obj = u.info.Uses[id]
				}
				if obj != nil {
					if known {
						env[obj] = un
					} else {
						delete(env, obj)
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					if un, known := u.unitOfExpr(vs.Values[i], env, emit); known {
						if obj := u.info.Defs[name]; obj != nil {
							env[obj] = un
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		if emit && len(n.Results) == 1 {
			un, known := u.unitOfExpr(n.Results[0], env, emit)
			if !u.retSet {
				u.retSet, u.retKnown, u.retUnit = true, known, un
			} else if !known || !u.retKnown || un != u.retUnit {
				u.retKnown = false
			}
		}
	default:
		if e, ok := n.(ast.Expr); ok {
			u.unitOfExpr(e, env, emit)
		} else {
			for _, part := range shallowParts(n) {
				if e, ok := part.(ast.Expr); ok {
					u.unitOfExpr(e, env, emit)
				}
			}
			switch n := n.(type) {
			case *ast.ExprStmt:
				u.unitOfExpr(n.X, env, emit)
			case *ast.IncDecStmt:
				u.unitOfExpr(n.X, env, emit)
			case *ast.DeferStmt:
				u.unitOfExpr(n.Call, env, emit)
			case *ast.GoStmt:
				u.unitOfExpr(n.Call, env, emit)
			}
		}
	}
}

// unitOfExpr computes the unit an expression's value carries, walking
// subexpressions for findings along the way.
func (u *unitFunc) unitOfExpr(e ast.Expr, env unitEnv, emit bool) (unit, bool) {
	switch e := e.(type) {
	case nil:
		return unit{}, false
	case *ast.Ident:
		if un, ok := unitOf(e.Name); ok {
			return un, true
		}
		obj := u.info.Uses[e]
		if obj == nil {
			obj = u.info.Defs[e]
		}
		if obj != nil {
			if un, ok := env[obj]; ok {
				return un, true
			}
		}
		return unit{}, false
	case *ast.SelectorExpr:
		if un, ok := unitOf(e.Sel.Name); ok {
			return un, true
		}
		return unit{}, false
	case *ast.ParenExpr:
		return u.unitOfExpr(e.X, env, emit)
	case *ast.UnaryExpr:
		return u.unitOfExpr(e.X, env, emit)
	case *ast.StarExpr:
		return u.unitOfExpr(e.X, env, emit)
	case *ast.BasicLit:
		return unit{}, false
	case *ast.BinaryExpr:
		xu, xok := u.unitOfExpr(e.X, env, emit)
		yu, yok := u.unitOfExpr(e.Y, env, emit)
		switch e.Op {
		case token.ADD, token.SUB:
			if xok && yok {
				if xu != yu && emit {
					u.reportf(e.OpPos, "%s %s and %s in the same sum: additive operands must share a unit",
						opWord(e.Op), xu.name, yu.name)
				}
				if xu == yu {
					return xu, true
				}
				return unit{}, false
			}
			if xok {
				return xu, true
			}
			if yok {
				return yu, true
			}
			return unit{}, false
		case token.MUL:
			if xok && yok && xu.dim == "voltage" && yu.dim == "voltage" && emit {
				u.reportf(e.OpPos, "%s×%s product: voltage squares have no place in this model (energies come from per-op pJ tables)",
					xu.name, yu.name)
			}
			return unit{}, false
		default:
			return unit{}, false
		}
	case *ast.CallExpr:
		return u.unitOfCall(e, env, emit)
	case *ast.IndexExpr:
		u.unitOfExpr(e.Index, env, emit)
		return u.unitOfExpr(e.X, env, emit)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				u.unitOfExpr(kv.Value, env, emit)
				continue
			}
			u.unitOfExpr(el, env, emit)
		}
		return unit{}, false
	}
	return unit{}, false
}

func (u *unitFunc) unitOfCall(call *ast.CallExpr, env unitEnv, emit bool) (unit, bool) {
	// Numeric conversions keep the operand's unit.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 1 {
		switch id.Name {
		case "float64", "float32", "int", "int64", "int32", "uint64", "uint32", "uint":
			if _, isConv := u.info.Uses[id].(*types.TypeName); isConv || u.info.Uses[id] == nil {
				return u.unitOfExpr(call.Args[0], env, emit)
			}
		}
	}

	fn := flow.Callee(u.info, call)

	// Flow-only argument check: unitcheck already compares the arg's
	// *name* against the parameter name; here only flow-derived units
	// add signal.
	if emit && fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Params() != nil {
			for i, arg := range call.Args {
				pi := i
				if sig.Variadic() && pi >= sig.Params().Len()-1 {
					pi = sig.Params().Len() - 1
				}
				if pi >= sig.Params().Len() {
					break
				}
				if syntacticUnit(arg) {
					continue // unitcheck's territory
				}
				au, aok := u.unitOfExpr(arg, env, false)
				if !aok {
					continue
				}
				pu, pok := unitOf(sig.Params().At(pi).Name())
				if pok && pu.dim == au.dim && pu.name != au.name {
					u.reportf(arg.Pos(), "passing a value carrying %s as parameter %s (%s): %s/%s unit mismatch via dataflow",
						au.name, sig.Params().At(pi).Name(), pu.name, au.name, pu.name)
				}
			}
		}
	}
	for _, arg := range call.Args {
		u.unitOfExpr(arg, env, emit)
	}

	// Result unit: the callee's flow summary first, then its name.
	if fn != nil {
		if sum, ok := u.shared.sums[fn]; ok && sum.known {
			return sum.result, true
		}
		if un, ok := unitOf(fn.Name()); ok {
			return un, true
		}
	}
	return unit{}, false
}

func (u *unitFunc) reportf(pos token.Pos, format string, args ...any) {
	if u.pass != nil {
		u.pass.Reportf(pos, format, args...)
	}
}

func opWord(op token.Token) string {
	if op == token.SUB {
		return "subtracting"
	}
	return "adding"
}

// syntacticUnit reports whether the expression's surface name already
// resolves to a unit — exactly the cases the syntactic unitcheck
// covers, which the flow analysis must not re-report.
func syntacticUnit(e ast.Expr) bool {
	name := exprUnitName(e)
	if name == "" {
		return false
	}
	_, ok := unitOf(name)
	return ok
}
