package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/flow"
)

// TimingSensitivePaths lists the package scopes (see pkgIn) whose code
// sits on the simulated-time path: wall-clock reads there (time.Now,
// time.Since, ...) would couple results to the host machine and break
// bit-for-bit replay of a sweep.
var TimingSensitivePaths = []string{"internal/sim", "internal/cpu", "internal/cache", "internal/engine", "internal/inject", "internal/dvfs"}

// Detflow is the flow-sensitive determinism check: it tracks taint from
// nondeterminism sources — the global math/rand generator, wall-clock
// reads, map iteration order, racy select arms, goroutine-count reads —
// through assignments, arithmetic, container writes, returns and
// (via call summaries) helper functions, and reports when a tainted
// value reaches a result sink: fmt/csv output or a field of a
// result-carrying struct (…Result, …Row, …Cell, …Epoch, …Summary).
//
// It subsumes the old syntactic determinism check: unseeded global
// math/rand calls and wall-clock reads in timing-sensitive packages are
// still immediate findings, and the "printing from a map range" case
// now survives laundering — a helper that collects map keys into a
// slice taints the slice, and the caller that prints it is flagged even
// though no print appears in the loop body. Sorting sanitizes: passing
// a slice through sort.Strings/Ints/Float64s/Slice/Sort clears
// iteration-order taint.
var Detflow = &Analyzer{
	Name:    "detflow",
	Doc:     "taint from nondeterminism sources (rand, clock, map order, select) must not reach result sinks",
	Prepare: prepareDetflow,
	Run:     runDetflow,
}

// seededRand lists, per math/rand version, the package-level
// functions that build a generator from an explicit seed or source;
// every other package-level function of either package draws from the
// shared global generator.
var seededRand = map[string]map[string]bool{
	"math/rand":    {"New": true, "NewSource": true, "NewZipf": true},
	"math/rand/v2": {"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true},
}

// wallClockFuncs are the time-package functions that read the host
// clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true, "Tick": true, "After": true}

// sourceOf classifies a callee as a nondeterminism source: a global
// math/rand or math/rand/v2 draw (taintRand), a host-clock read
// (taintClock) or a scheduler-dependent runtime read (taintSched).
// Methods are never sources: a *rand.Rand draws from its own seeded
// state, and time.Time.After compares two times. detflow's immediate
// findings and taint sources and eventflow's handler rules all ask
// here.
func sourceOf(fn *types.Func) taintKind {
	if fn == nil || fn.Pkg() == nil || fn.Signature().Recv() != nil {
		return taintNone
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case seededRand[path] != nil && !seededRand[path][name]:
		return taintRand
	case path == "time" && wallClockFuncs[name]:
		return taintClock
	case path == "runtime" && (name == "NumGoroutine" || name == "Stack"):
		return taintSched
	}
	return taintNone
}

// taintKind classifies the root nondeterminism source of a value.
type taintKind uint8

const (
	taintNone taintKind = iota
	// taintRand: drawn from the global math/rand generator.
	taintRand
	// taintClock: derived from the host wall clock.
	taintClock
	// taintOrder: ordering derived from map iteration. Stripped by
	// integer arithmetic (commutative, exact) and by sorting; kept
	// through appends, string building and float accumulation.
	taintOrder
	// taintSched: scheduler-dependent (multi-arm select receives,
	// goroutine-count reads).
	taintSched
)

// taintVal is the dataflow fact for one value: an optional concrete
// taint plus the set of function parameters it depends on (parameter
// dependence is what call summaries are made of).
type taintVal struct {
	kind taintKind
	pos  token.Pos // where the source was introduced
	// params is a bitset over the function's parameters (receiver
	// first); a set bit means "tainted iff that argument is tainted".
	params uint64
}

func (t taintVal) real() bool { return t.kind != taintNone }

func (t taintVal) desc() string {
	switch t.kind {
	case taintRand:
		return "a global math/rand draw"
	case taintClock:
		return "the host wall clock"
	case taintOrder:
		return "map iteration order"
	case taintSched:
		return "goroutine scheduling"
	default:
		return "an unknown source"
	}
}

// joinTaint merges two facts: earliest concrete source wins (a total,
// deterministic order so the fixpoint cannot oscillate), parameter
// dependences union.
func joinTaint(a, b taintVal) taintVal {
	out := a
	if a.kind == taintNone || (b.kind != taintNone && (b.pos < a.pos || (b.pos == a.pos && b.kind < a.kind))) {
		out.kind, out.pos = b.kind, b.pos
	}
	out.params = a.params | b.params
	return out
}

// stripOrder removes iteration-order taint: used when a value passes
// through exact commutative arithmetic (integer sums) where visit order
// cannot influence the result.
func stripOrder(t taintVal) taintVal {
	if t.kind == taintOrder {
		t.kind, t.pos = taintNone, token.NoPos
	}
	return t
}

// sinkRef records one sink reached inside a callee, for interprocedural
// reporting at the call site.
type sinkRef struct {
	pos  token.Pos
	desc string
}

// detSummary is one function's interprocedural summary.
type detSummary struct {
	// results holds, per result index, the taint the function returns:
	// concrete taint introduced inside plus parameter dependences.
	results []taintVal
	// paramSinks maps a parameter index to the sinks its value reaches
	// inside the function (directly or through further calls).
	paramSinks map[int][]sinkRef
}

func (s *detSummary) equal(o *detSummary) bool {
	if o == nil || len(s.results) != len(o.results) || len(s.paramSinks) != len(o.paramSinks) {
		return false
	}
	for i := range s.results {
		if s.results[i] != o.results[i] {
			return false
		}
	}
	for k, v := range s.paramSinks {
		if len(o.paramSinks[k]) != len(v) {
			return false
		}
	}
	return true
}

// detShared is the Prepare product: the module-wide function index,
// converged summaries, and per-declaration value summaries (alias
// classes), all read-only during the per-package Run phase.
type detShared struct {
	// module is the module path: result types declared in it are sinks.
	module string
	ix     *flow.Index
	sums   map[*types.Func]*detSummary
	vals   map[*ast.FuncDecl]*flow.FuncValues
}

func prepareDetflow(mod *Module) any {
	sh := &detShared{
		module: mod.Path,
		ix:     flow.NewIndex(mod.Sources()),
		sums:   map[*types.Func]*detSummary{},
		vals:   map[*ast.FuncDecl]*flow.FuncValues{},
	}
	// Value summaries are flow-insensitive and body-local: build each
	// once, outside the summary fixpoint.
	for _, fi := range sh.ix.Funcs() {
		if fi.Decl.Body != nil {
			sh.vals[fi.Decl] = flow.NewFuncValues(fi.Info, fi.Decl.Body)
		}
	}
	sh.ix.Fixpoint(func(fi *flow.FuncInfo) bool {
		if fi.Decl.Body == nil {
			return false
		}
		a := &detFunc{shared: sh, info: fi.Info, fn: fi.Decl}
		sum := a.analyze(nil)
		old := sh.sums[fi.Obj]
		sh.sums[fi.Obj] = sum
		return old == nil || !sum.equal(old)
	})
	return sh
}

func runDetflow(pass *Pass) {
	sh := pass.Shared.(*detShared)
	info := pass.TypesInfo()
	timing := pkgIn(pass.Pkg.Path, TimingSensitivePaths...)

	// Phase 1 — immediate source findings, exactly the old syntactic
	// determinism semantics: these are wrong wherever they appear,
	// whether or not the value reaches a sink.
	inspect(pass, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := info.Uses[sel.Sel].(*types.Func)
		kind := sourceOf(fn)
		if kind == taintRand {
			pass.Reportf(n.Pos(), "call to global math/rand.%s; draw from a rand.New(rand.NewSource(seed)) instance so runs replay bit-for-bit", fn.Name())
		}
		if kind == taintClock && timing {
			pass.Reportf(n.Pos(), "wall-clock read time.%s in timing-sensitive package %s; simulated time must not depend on the host clock", fn.Name(), pass.Pkg.Path)
		}
		return true
	})

	// Phase 2 — flow-sensitive sink findings, per function body
	// (declarations and nested literals alike).
	for fd := range pass.funcDecls() {
		for _, body := range flow.BodiesOf(fd) {
			a := &detFunc{shared: sh, info: info, fn: fd, body: body, pass: pass, timing: timing}
			a.analyze(pass)
		}
	}
}

// detFunc runs the intraprocedural taint analysis over one function
// body. With a nil pass it only computes the summary (Prepare phase);
// with a pass it also emits diagnostics (Run phase).
type detFunc struct {
	shared *detShared
	info   *types.Info
	fn     *ast.FuncDecl
	// body selects which body of fn to analyze during the Run phase
	// (the declaration itself or a nested literal). Zero value during
	// Prepare means the declaration body.
	body   flow.Body
	pass   *Pass
	timing bool

	params []types.Object // receiver-first parameter objects
	sum    *detSummary
	// vals is the declaration's value summary: taint facts are keyed by
	// alias-class representative, so a fact set through one name (q :=
	// p; q.n = tainted) is visible through every alias, and sorting an
	// alias sanitizes the whole class.
	vals *flow.FuncValues
	// selectComms marks comm-clause statements of multi-arm selects
	// (scheduler-picked receives).
	selectComms map[ast.Stmt]bool
}

type taintEnv map[types.Object]taintVal

// rep canonicalizes an object to its alias-class representative; env
// reads and writes go through it so plain copies share one fact slot.
func (a *detFunc) rep(obj types.Object) types.Object {
	if obj == nil || a.vals == nil {
		return obj
	}
	return a.vals.Rep(obj)
}

func (a *detFunc) analyze(pass *Pass) *detSummary {
	block := a.fn.Body
	ftype := a.fn.Type
	isLit := false
	if a.body.Block != nil {
		block, ftype, isLit = a.body.Block, a.body.Type, a.body.Lit != nil
	}
	a.sum = &detSummary{paramSinks: map[int][]sinkRef{}}
	a.vals = a.shared.vals[a.fn]
	if a.vals == nil {
		a.vals = flow.NewFuncValues(a.info, a.fn.Body)
	}
	a.params = nil
	if !isLit {
		if a.fn.Recv != nil {
			for _, f := range a.fn.Recv.List {
				for _, n := range f.Names {
					a.params = append(a.params, a.info.Defs[n])
				}
			}
		}
		if ftype.Params != nil {
			for _, f := range ftype.Params.List {
				for _, n := range f.Names {
					a.params = append(a.params, a.info.Defs[n])
				}
			}
		}
	}
	if ftype.Results != nil {
		n := 0
		for _, f := range ftype.Results.List {
			if len(f.Names) == 0 {
				n++
			} else {
				n += len(f.Names)
			}
		}
		a.sum.results = make([]taintVal, n)
	}

	a.selectComms = map[ast.Stmt]bool{}
	flow.InspectShallow(block, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		comms := 0
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comms++
			}
		}
		if comms >= 2 {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					a.selectComms[cc.Comm] = true
				}
			}
		}
		return true
	})

	lat := flow.MayMap[taintEnv](taintVal{}, joinTaint)
	lat.Init = func() taintEnv {
		env := taintEnv{}
		for i, p := range a.params {
			if p != nil && i < 64 {
				env[p] = taintVal{params: 1 << uint(i)}
			}
		}
		return env
	}
	// The replay with emit set reports sink hits and records the
	// summary from the converged facts.
	flow.Replay(flow.New(block, stdTerminal(a.info)), lat, flow.NodeStep(a.step))
	return a.sum
}

// step interprets one CFG node, updating env; when emit is set it also
// reports sink hits and records summary facts.
func (a *detFunc) step(n ast.Node, env taintEnv, emit bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, env, emit)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var v taintVal
					if i < len(vs.Values) {
						v = a.eval(vs.Values[i], env, emit)
					} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
						v = a.eval(vs.Values[0], env, emit)
					}
					if obj := a.info.Defs[name]; obj != nil {
						env[a.rep(obj)] = v
					}
				}
			}
		}
	case *ast.RangeStmt:
		a.rangeBind(n, env, emit)
	case *ast.ReturnStmt:
		a.returns(n, env, emit)
	case *ast.SendStmt:
		v := a.eval(n.Value, env, emit)
		a.taintTarget(n.Chan, v, env)
		a.eval(n.Chan, env, emit)
	case *ast.ExprStmt:
		a.eval(n.X, env, emit)
	case *ast.DeferStmt:
		a.eval(n.Call, env, emit)
	case *ast.GoStmt:
		a.eval(n.Call, env, emit)
	case *ast.IncDecStmt:
		a.eval(n.X, env, emit)
	case *ast.LabeledStmt, *ast.EmptyStmt:
	case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.ForStmt, *ast.BlockStmt, *ast.BranchStmt, *ast.CaseClause, *ast.CommClause:
		// Structure handled by the CFG; conditions appear as their own
		// expression nodes.
	default:
		if e, ok := n.(ast.Expr); ok {
			a.eval(e, env, emit)
		}
	}
}

// assign handles =, :=, compound assignment and tuple assignment.
func (a *detFunc) assign(n *ast.AssignStmt, env taintEnv, emit bool) {
	// Multi-arm select receive: the chosen arm is scheduler-dependent.
	if a.selectComms[n] && a.timing {
		for _, lhs := range n.Lhs {
			a.bind(lhs, taintVal{kind: taintSched, pos: n.Pos()}, env)
		}
		return
	}
	switch {
	case len(n.Lhs) == len(n.Rhs):
		vals := make([]taintVal, len(n.Rhs))
		for i, rhs := range n.Rhs {
			v := a.eval(rhs, env, emit)
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				// Compound assignment: integer arithmetic is exact and
				// commutative, so iteration-order taint does not
				// survive it; float/string accumulation keeps it.
				if isIntegral(a.info.TypeOf(n.Lhs[i])) {
					v = stripOrder(v)
				}
				v = joinTaint(a.eval(n.Lhs[i], env, emit), v)
			}
			vals[i] = v
		}
		for i, lhs := range n.Lhs {
			a.bind(lhs, vals[i], env)
		}
	case len(n.Rhs) == 1:
		// Tuple assignment from a call / map read / type assert.
		tuple := a.evalTuple(n.Rhs[0], len(n.Lhs), env, emit)
		for i, lhs := range n.Lhs {
			a.bind(lhs, tuple[i], env)
		}
	}
}

// bind writes a fact to an assignment target: identifiers get the fact;
// container/field writes join it into the base object (field- and
// element-insensitive).
func (a *detFunc) bind(lhs ast.Expr, v taintVal, env taintEnv) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := a.info.Defs[lhs]
		if obj == nil {
			obj = a.info.Uses[lhs]
		}
		if obj != nil {
			env[a.rep(obj)] = v
		}
	case *ast.IndexExpr:
		a.taintTarget(lhs.X, v, env)
	case *ast.StarExpr:
		a.taintTarget(lhs.X, v, env)
	case *ast.SelectorExpr:
		// Writing a tainted value into a result-type field is a sink;
		// handled by the caller (assign) via sinkFieldWrite. Taint the
		// base too so later reads of the struct see it.
		a.taintTarget(lhs, v, env)
	}
}

// taintTarget joins v into the root object of a write target (the
// container or struct being mutated).
func (a *detFunc) taintTarget(e ast.Expr, v taintVal, env taintEnv) {
	if !v.real() && v.params == 0 {
		return
	}
	if obj := a.rep(rootObj(a.info, e)); obj != nil {
		env[obj] = joinTaint(env[obj], v)
	}
}

// rootObj digs the base identifier's object out of a chain of
// selectors, indexes, stars and parens.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr, *ast.CompositeLit:
			return nil
		default:
			return nil
		}
	}
}

// rangeBind models `for k, v := range x`: map ranges add
// iteration-order taint to the bindings; every range propagates the
// container's own taint into the bound values.
func (a *detFunc) rangeBind(n *ast.RangeStmt, env taintEnv, emit bool) {
	base := a.eval(n.X, env, emit)
	_, isMap := a.info.TypeOf(n.X).Underlying().(*types.Map)
	kv := base
	if isMap {
		kv = joinTaint(base, taintVal{kind: taintOrder, pos: n.Pos()})
	}
	if n.Key != nil {
		if _, isSlice := a.info.TypeOf(n.X).Underlying().(*types.Slice); isSlice {
			// A slice index is deterministic even when the elements are
			// tainted.
			a.bind(n.Key, taintVal{}, env)
		} else {
			a.bind(n.Key, kv, env)
		}
	}
	if n.Value != nil {
		a.bind(n.Value, kv, env)
	}
}

// returns folds returned values into the summary.
func (a *detFunc) returns(n *ast.ReturnStmt, env taintEnv, emit bool) {
	if !emit {
		return
	}
	vals := make([]taintVal, 0, len(a.sum.results))
	switch {
	case len(n.Results) == 0 && len(a.sum.results) > 0:
		// Bare return with named results.
		ftype := a.fn.Type
		if a.body.Type != nil {
			ftype = a.body.Type
		}
		if ftype.Results != nil {
			for _, f := range ftype.Results.List {
				for _, name := range f.Names {
					vals = append(vals, env[a.rep(a.info.Defs[name])])
				}
			}
		}
	case len(n.Results) == 1 && len(a.sum.results) > 1:
		vals = a.evalTuple(n.Results[0], len(a.sum.results), env, emit)
	default:
		for _, r := range n.Results {
			vals = append(vals, a.eval(r, env, emit))
		}
	}
	for i := 0; i < len(vals) && i < len(a.sum.results); i++ {
		a.sum.results[i] = joinTaint(a.sum.results[i], vals[i])
	}
}

// evalTuple evaluates an expression in a multi-value context.
func (a *detFunc) evalTuple(e ast.Expr, n int, env taintEnv, emit bool) []taintVal {
	out := make([]taintVal, n)
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		res := a.evalCall(call, env, emit)
		for i := 0; i < n; i++ {
			if i < len(res) {
				out[i] = res[i]
			}
		}
		return out
	}
	// v, ok := m[k] / x.(T) / <-ch: value carries the container taint,
	// ok is clean.
	v := a.eval(e, env, emit)
	out[0] = v
	return out
}

// eval computes the fact for an expression, reporting sinks and
// recording summary facts along the way when emit is set.
func (a *detFunc) eval(e ast.Expr, env taintEnv, emit bool) taintVal {
	switch e := e.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		if obj := a.info.Uses[e]; obj != nil {
			return env[a.rep(obj)]
		}
		return taintVal{}
	case *ast.BasicLit:
		return taintVal{}
	case *ast.ParenExpr:
		return a.eval(e.X, env, emit)
	case *ast.UnaryExpr:
		return a.eval(e.X, env, emit)
	case *ast.StarExpr:
		return a.eval(e.X, env, emit)
	case *ast.BinaryExpr:
		v := joinTaint(a.eval(e.X, env, emit), a.eval(e.Y, env, emit))
		if isIntegral(a.info.TypeOf(e)) {
			v = stripOrder(v)
		}
		return v
	case *ast.IndexExpr:
		a.eval(e.Index, env, emit)
		return a.eval(e.X, env, emit)
	case *ast.SliceExpr:
		return a.eval(e.X, env, emit)
	case *ast.SelectorExpr:
		// Field access: the struct's fact covers its fields. Qualified
		// identifiers (pkg.Var) and method values evaluate clean.
		if _, ok := a.info.Selections[e]; ok {
			return a.eval(e.X, env, emit)
		}
		return taintVal{}
	case *ast.TypeAssertExpr:
		return a.eval(e.X, env, emit)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				ev := a.eval(kv.Value, env, emit)
				if emit {
					a.sinkCompositeField(e, kv, ev)
				}
				v = joinTaint(v, ev)
				continue
			}
			v = joinTaint(v, a.eval(el, env, emit))
		}
		return v
	case *ast.CallExpr:
		res := a.evalCall(e, env, emit)
		var v taintVal
		for _, r := range res {
			v = joinTaint(v, r)
		}
		return v
	case *ast.FuncLit:
		// Analyzed as its own body; the closure value itself is clean.
		return taintVal{}
	}
	return taintVal{}
}

// evalCall interprets a call: sources, sanitizers, sinks, summaries and
// the conservative default (results inherit the join of the inputs).
func (a *detFunc) evalCall(call *ast.CallExpr, env taintEnv, emit bool) []taintVal {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var v taintVal
				for _, arg := range call.Args {
					v = joinTaint(v, a.eval(arg, env, emit))
				}
				return []taintVal{v}
			case "copy":
				if len(call.Args) == 2 {
					src := a.eval(call.Args[1], env, emit)
					a.taintTarget(call.Args[0], src, env)
				}
				return []taintVal{{}}
			case "len", "cap", "make", "new", "delete", "min", "max", "clear":
				for _, arg := range call.Args {
					a.eval(arg, env, emit)
				}
				return []taintVal{{}}
			}
		}
		// Conversions to integer types strip order taint like integer
		// arithmetic does not — a conversion preserves the value, so
		// keep taint as-is.
	}

	fn := flow.Callee(a.info, call)
	nres := callResults(a.info, call)

	if kind := sourceOf(fn); kind != taintNone {
		a.evalArgs(call, env, emit)
		return fill(nres, taintVal{kind: kind, pos: call.Pos()})
	}
	if fn != nil && fn.Pkg() != nil {
		pkg, name := fn.Pkg().Path(), fn.Name()
		switch {
		case pkg == "sort" || pkg == "slices":
			// Sorting is the sanctioned sanitizer for iteration-order
			// taint: clear it on the sorted argument.
			if strings.HasPrefix(name, "Sort") || name == "Strings" || name == "Ints" || name == "Float64s" || name == "Slice" || name == "SliceStable" || name == "Stable" {
				if len(call.Args) > 0 {
					// The alias representative: sorting a plain copy of a
					// slice sorts the shared backing array, so the whole
					// class is sanitized.
					if obj := a.rep(rootObj(a.info, call.Args[0])); obj != nil {
						env[obj] = stripOrder(env[obj])
					}
				}
				return fill(nres, taintVal{})
			}
		case pkg == "fmt":
			return a.evalFmt(call, name, env, emit)
		case pkg == "encoding/csv" && (name == "Write" || name == "WriteAll"):
			for _, arg := range call.Args {
				v := a.eval(arg, env, emit)
				a.sinkCheck(arg.Pos(), "a CSV record", v, emit)
			}
			return fill(nres, taintVal{})
		}

		// Module-local callee with a summary: apply it.
		if sum, ok := a.shared.sums[fn]; ok {
			return a.applySummary(call, fn, sum, env, emit)
		}
	}

	// Conservative default: every result inherits the join of receiver
	// and arguments.
	var v taintVal
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := a.info.Selections[sel]; isMethod {
			v = joinTaint(v, a.eval(sel.X, env, emit))
		}
	}
	for _, arg := range call.Args {
		v = joinTaint(v, a.eval(arg, env, emit))
	}
	return fill(nres, v)
}

// evalFmt models the fmt package: Print/Fprint families are sinks,
// Sprint families propagate, Errorf propagates.
func (a *detFunc) evalFmt(call *ast.CallExpr, name string, env taintEnv, emit bool) []taintVal {
	nres := callResults(a.info, call)
	args := call.Args
	isSink := false
	switch name {
	case "Print", "Printf", "Println":
		isSink = true
	case "Fprint", "Fprintf", "Fprintln":
		isSink = true
		if len(args) > 0 {
			a.eval(args[0], env, emit)
			args = args[1:]
		}
	}
	var v taintVal
	for _, arg := range args {
		av := a.eval(arg, env, emit)
		if isSink {
			a.sinkCheck(arg.Pos(), "fmt output", av, emit)
		}
		v = joinTaint(v, av)
	}
	if isSink {
		return fill(nres, taintVal{})
	}
	return fill(nres, v)
}

// applySummary maps a callee summary onto the call site: results pick
// up the callee's own taint plus the taint of the arguments its results
// depend on, and arguments feeding in-callee sinks are checked here.
func (a *detFunc) applySummary(call *ast.CallExpr, fn *types.Func, sum *detSummary, env taintEnv, emit bool) []taintVal {
	// Build the receiver-first argument fact list.
	var argVals []taintVal
	var argPos []token.Pos
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := a.info.Selections[sel]; isMethod {
			argVals = append(argVals, a.eval(sel.X, env, emit))
			argPos = append(argPos, sel.X.Pos())
		}
	}
	if fn.Signature().Recv() != nil && len(argVals) == 0 {
		// Method expression/value call forms: be conservative.
		argVals = append(argVals, taintVal{})
		argPos = append(argPos, call.Pos())
	}
	for _, arg := range call.Args {
		argVals = append(argVals, a.eval(arg, env, emit))
		argPos = append(argPos, arg.Pos())
	}

	// Tainted argument reaching a sink inside the callee.
	for j, av := range argVals {
		if !av.real() && av.params == 0 {
			continue
		}
		for _, sink := range sum.paramSinks[j] {
			if av.real() {
				a.sinkCheck(argPos[j], sink.desc+fmt.Sprintf(" inside %s", fn.Name()), av, emit)
			}
			// Parameter-dependent: lift into this function's summary.
			a.liftParamSinks(av, sink)
		}
	}

	nres := callResults(a.info, call)
	out := make([]taintVal, nres)
	for i := 0; i < nres; i++ {
		var v taintVal
		if i < len(sum.results) {
			r := sum.results[i]
			if r.real() {
				v = taintVal{kind: r.kind, pos: r.pos}
			}
			for j := 0; j < len(argVals) && j < 64; j++ {
				if r.params&(1<<uint(j)) != 0 {
					v = joinTaint(v, argVals[j])
				}
			}
		}
		out[i] = v
	}
	return out
}

// liftParamSinks records that this function's parameters (the bits in
// av.params) reach a sink through a callee.
func (a *detFunc) liftParamSinks(av taintVal, sink sinkRef) {
	for j := 0; j < 64; j++ {
		if av.params&(1<<uint(j)) == 0 {
			continue
		}
		refs := a.sum.paramSinks[j]
		dup := false
		for _, r := range refs {
			if r.pos == sink.pos {
				dup = true
				break
			}
		}
		if !dup {
			a.sum.paramSinks[j] = append(a.sum.paramSinks[j], sink)
		}
	}
}

// sinkCheck handles a value arriving at a sink: concrete taint is
// reported (Run phase), parameter dependence recorded in the summary.
func (a *detFunc) sinkCheck(pos token.Pos, what string, v taintVal, emit bool) {
	if !emit {
		return
	}
	if v.params != 0 {
		a.liftParamSinks(v, sinkRef{pos: pos, desc: what})
	}
	if !v.real() || a.pass == nil {
		return
	}
	// A CLI printing the wall clock is legitimate UX; the clock is only
	// a print-sink problem on the simulated-time path. Result-field and
	// CSV sinks reject it everywhere.
	if v.kind == taintClock && what == "fmt output" && !a.timing {
		return
	}
	src := a.pass.Fset.Position(v.pos)
	a.pass.Reportf(pos, "value influenced by %s (source at %s) flows into %s; derive it deterministically or sort first", v.desc(), compactPos(src), what)
}

// sinkCompositeField flags tainted values used to build result-carrying
// structs.
func (a *detFunc) sinkCompositeField(lit *ast.CompositeLit, kv *ast.KeyValueExpr, v taintVal) {
	if !v.real() && v.params == 0 {
		return
	}
	tname, ok := sinkTypeName(a.info.TypeOf(lit), a.shared.module)
	if !ok {
		return
	}
	key, ok := kv.Key.(*ast.Ident)
	if !ok {
		return
	}
	a.sinkCheck(kv.Value.Pos(), fmt.Sprintf("result field %s.%s", tname, key.Name), v, true)
}

// sinkTypeName reports whether t is a result-carrying type declared in
// the module (…Result, …Row, …Cell, …Epoch, …Summary, …Residency).
func sinkTypeName(t types.Type, module string) (string, bool) {
	obj := namedObj(t)
	if obj == nil || !inModule(obj.Pkg().Path(), module) {
		return "", false
	}
	name := obj.Name()
	for _, suffix := range []string{"Result", "Row", "Cell", "Epoch", "Summary", "Residency"} {
		if strings.HasSuffix(name, suffix) {
			return name, true
		}
	}
	return "", false
}

// evalArgs evaluates call arguments for side effects only.
func (a *detFunc) evalArgs(call *ast.CallExpr, env taintEnv, emit bool) {
	for _, arg := range call.Args {
		a.eval(arg, env, emit)
	}
}

// callResults returns the number of results a call produces (minimum 1
// so expression contexts always have a fact).
func callResults(info *types.Info, call *ast.CallExpr) int {
	if tv, ok := info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			return max(tuple.Len(), 1)
		}
	}
	return 1
}

func fill(n int, v taintVal) []taintVal {
	out := make([]taintVal, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// compactPos renders a source position for messages: file base name
// plus line, enough to locate the source without absolute paths.
func compactPos(p token.Position) string {
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
