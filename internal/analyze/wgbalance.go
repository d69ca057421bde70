package analyze

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analyze/flow"
)

// WGBalance is the lockbalance analogue for sync.WaitGroup: a counter
// analysis over the CFG tracking the set of possible Add/Done deltas
// for each locally-declared WaitGroup. Two findings come out of it:
//
//   - Add inside the spawned goroutine: `go func() { wg.Add(1); ... }`
//     races the spawner's Wait — the scheduler can run Wait before the
//     goroutine's Add, so Wait returns with work still in flight. Add
//     must happen before the go statement.
//   - Unbalanced paths: at a Wait site where no path's delta is zero
//     (an Add without a matching Done, or a Done count exceeding Add —
//     the latter panics with "negative WaitGroup counter"), and loops
//     whose iterations accumulate Adds without a matching Done in the
//     spawned body, which makes Wait deadlock once the loop runs.
//
// A Done inside a `go` literal is credited at the go statement: the
// spawned goroutine performs it before Wait unblocks, which is exactly
// the pattern engine.runMap uses. WaitGroups passed to other functions
// (`f(&wg)`, `go worker(&wg)`) leave the balance unknowable and are
// skipped entirely rather than guessed at.
var WGBalance = &Analyzer{
	Name: "wgbalance",
	Doc:  "sync.WaitGroup Add/Done balance: Add before go, zero reachable at every Wait",
	Run:  runWGBalance,
}

// wgDelta is the set of possible counter deltas, bit i representing
// delta i-16 over the window [-16, +15]; hi/lo record overflow out of
// the window (unbounded positive or negative drift).
type wgDelta struct {
	mask   uint32
	hi, lo bool
}

const wgZeroBit = uint32(1) << 16

var wgInit = wgDelta{mask: wgZeroBit}

func (d wgDelta) shift(by int) wgDelta {
	out := wgDelta{hi: d.hi, lo: d.lo}
	if by >= 0 {
		if by > 31 {
			by = 31
		}
		out.mask = d.mask << uint(by)
		if d.mask>>(32-uint(by)) != 0 || (d.hi && d.mask != 0) {
			out.hi = true
		}
	} else {
		by = -by
		if by > 31 {
			by = 31
		}
		out.mask = d.mask >> uint(by)
		if d.mask&(1<<uint(by)-1) != 0 {
			out.lo = true
		}
	}
	// Overflowed sets stay overflowed: keep the window edge occupied so
	// later shifts keep drifting instead of emptying the mask.
	if out.hi {
		out.mask |= 1 << 31
	}
	if out.lo {
		out.mask |= 1
	}
	return out
}

func (d wgDelta) canBeZero() bool { return d.mask&wgZeroBit != 0 }

func (d wgDelta) join(o wgDelta) wgDelta {
	return wgDelta{mask: d.mask | o.mask, hi: d.hi || o.hi, lo: d.lo || o.lo}
}

// wgEnv maps WaitGroup keys to their possible deltas; missing keys are
// at the initial zero delta.
type wgEnv map[string]wgDelta

var wgLattice = flow.MayMap[wgEnv](wgInit, wgDelta.join)

// wgOp classifies a call as a sync.WaitGroup method, resolved through
// go/types, and returns the canonical key of the WaitGroup expression.
func wgOp(info *types.Info, call *ast.CallExpr) (key, op string) {
	fn, x := methodCall(info, call)
	if fn == nil || !isNamed(fn.Signature().Recv().Type(), "sync", "WaitGroup") {
		return "", ""
	}
	switch fn.Name() {
	case "Add", "Done", "Wait":
		if key = flow.ExprKey(x); key != "" {
			return key, fn.Name()
		}
	}
	return "", ""
}

func runWGBalance(pass *Pass) {
	for fd := range pass.funcDecls() {
		for _, body := range flow.BodiesOf(fd) {
			checkWGBalance(pass, body.Block)
		}
	}
}

func checkWGBalance(pass *Pass, block *ast.BlockStmt) {
	info := pass.TypesInfo()

	// Rule 1 — Add inside a spawned goroutine races the spawner's Wait.
	// Purely syntactic over this body's go literals.
	flow.InspectShallow(block, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit := flow.GoFuncLit(gs)
		if lit == nil {
			return true
		}
		flow.InspectShallow(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op := wgOp(info, call); op == "Add" {
				pass.Reportf(call.Pos(), "%s.Add inside the spawned goroutine races Wait; call Add before the go statement", key)
			}
			return true
		})
		return true
	})

	// Rule 2 — delta tracking for locally-declared WaitGroups.
	tracked := localWaitGroups(info, block)
	if len(tracked) == 0 {
		return
	}

	g := flow.New(block, stdTerminal(info))
	flow.Replay(g, wgLattice, flow.NodeStep(func(n ast.Node, env wgEnv, emit bool) {
		wgStep(pass, n, env, tracked, emit)
	}))
}

// wgStep applies one CFG node's WaitGroup effects; with emit set it
// also reports Wait-site imbalances and definite-negative Dones.
func wgStep(pass *Pass, n ast.Node, env wgEnv, tracked map[string]bool, emit bool) {
	info := pass.TypesInfo()
	get := func(k string) wgDelta {
		if v, ok := env[k]; ok {
			return v
		}
		return wgInit
	}
	// A go statement running a literal credits the Dones the goroutine
	// will perform (a deferred wg.Done in the spawned body is the
	// canonical completion signal).
	if gs, ok := n.(*ast.GoStmt); ok {
		if lit := flow.GoFuncLit(gs); lit != nil {
			counts := map[string]int{}
			flow.InspectShallow(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, op := wgOp(info, call); op == "Done" && tracked[key] {
						counts[key]++
					}
				}
				return true
			})
			for key, c := range counts {
				env[key] = get(key).shift(-c)
			}
		}
		return
	}

	for _, part := range shallowParts(n) {
		wgStepPart(pass, part, env, tracked, emit, get)
	}
}

// wgStepPart scans one header-level part of a CFG node for WaitGroup
// calls (shallowParts keeps a range statement's body out — its nodes
// live in other blocks).
func wgStepPart(pass *Pass, part ast.Node, env wgEnv, tracked map[string]bool, emit bool, get func(string) wgDelta) {
	info := pass.TypesInfo()
	flow.InspectShallow(part, func(m ast.Node) bool {
		if _, isDefer := m.(*ast.DeferStmt); isDefer {
			// A deferred Done/Wait runs at function exit, outside flow
			// order; accounting it here would skew every later point.
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := wgOp(info, call)
		if op == "" || !tracked[key] {
			return true
		}
		switch op {
		case "Add":
			delta, known := constIntArg(info, call)
			if !known {
				// Non-constant Add: give up on this WaitGroup for the
				// rest of the path by saturating both directions.
				env[key] = wgDelta{mask: get(key).mask, hi: true, lo: true}
				return true
			}
			env[key] = get(key).shift(delta)
		case "Done":
			d := get(key)
			next := d.shift(-1)
			if emit && d.onlyNegativeOrZeroGoingNegative() {
				pass.Reportf(call.Pos(), "%s.Done brings the counter below zero on every path here; a negative WaitGroup counter panics", key)
			}
			env[key] = next
		case "Wait":
			d := get(key)
			if !emit {
				return true
			}
			if d.hi {
				pass.Reportf(call.Pos(), "%s.Wait can deadlock: a loop adds to %s without a matching Done in the spawned goroutine, so the counter drifts upward", key, key)
			} else if !d.canBeZero() && d.mask != 0 {
				pass.Reportf(call.Pos(), "%s.Wait runs where the Add/Done balance is never zero; some Add has no matching Done (or vice versa) on every path here", key)
			}
		}
		return true
	})
}

// onlyNegativeOrZeroGoingNegative reports a delta set whose every
// member is <= 0 with at least one member, i.e. the next Done is
// guaranteed to push the counter negative.
func (d wgDelta) onlyNegativeOrZeroGoingNegative() bool {
	return !d.hi && d.mask != 0 && d.mask&^((wgZeroBit<<1)-1) == 0
}

// constIntArg extracts a constant integer first argument.
func constIntArg(info *types.Info, call *ast.CallExpr) (int, bool) {
	if len(call.Args) != 1 {
		return 0, false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok || v < -16 || v > 16 {
		return 0, false
	}
	return int(v), true
}

// localWaitGroups finds WaitGroups declared in this body whose balance
// is fully visible: never passed to another function and never spawned
// into a named function. Anything escaping is untracked.
func localWaitGroups(info *types.Info, block *ast.BlockStmt) map[string]bool {
	tracked := map[string]bool{}
	flow.InspectShallow(block, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, name := range vs.Names {
							if obj := info.Defs[name]; obj != nil && isNamed(obj.Type(), "sync", "WaitGroup") {
								tracked[name.Name] = true
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil && isNamed(obj.Type(), "sync", "WaitGroup") {
						tracked[id.Name] = true
					}
				}
			}
		}
		return true
	})
	if len(tracked) == 0 {
		return tracked
	}
	// Escape scan over the whole body including nested literals: a
	// WaitGroup appearing as a call argument (f(&wg), go worker(&wg))
	// has Dones we cannot see.
	ast.Inspect(block, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			e := ast.Unparen(arg)
			if u, ok := e.(*ast.UnaryExpr); ok {
				e = ast.Unparen(u.X)
			}
			if id, ok := e.(*ast.Ident); ok && tracked[id.Name] {
				if obj := info.Uses[id]; obj != nil && isNamed(obj.Type(), "sync", "WaitGroup") {
					delete(tracked, id.Name)
				}
			}
		}
		return true
	})
	return tracked
}
