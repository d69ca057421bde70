package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"repro/internal/analyze/flow"
)

// LockGuard enforces the `// guarded by <mu>` field convention with a
// flow-sensitive must-hold lockset: every read or write of a documented
// field must happen at a program point where that mutex is held on
// every path — Lock/RLock adds to the lockset, Unlock/RUnlock removes,
// a deferred Unlock keeps the lock held to function exit, and branch
// joins intersect (must semantics). Reads are legal under RLock or
// Lock; writes require the exclusive Lock. Functions whose name ends in
// "Locked" follow the caller-holds-the-lock convention and are skipped;
// conversely, calling a *Locked function while holding nothing is its
// own finding.
//
// This replaces the v1 heuristic ("the function locks the mutex
// somewhere in its body"), which missed accesses before the Lock, after
// an early-return Unlock, and on branches that never lock.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields documented `// guarded by mu` are only touched while that mutex is held (flow-sensitive)",
	Run:  runLockGuard,
}

// LockBalance reports functions that can return with a mutex still
// held: a may-hold analysis over the same CFG, minus locks released by
// a deferred Unlock. Panic exits are excluded — leaking a lock while
// crashing is the recover path's business.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "no return path leaves a mutex locked without a deferred unlock",
	Run:  runLockBalance,
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardedField is one documented field.
type guardedField struct {
	obj *types.Var // the field object
	mu  string     // the guarding mutex's name
}

// lockset maps a canonical mutex expression ("m.mu", "customMu") to the
// strongest mode held: lockShared (RLock) or lockExcl (Lock).
type lockset map[string]uint8

const (
	lockShared uint8 = 1
	lockExcl   uint8 = 2
)

// mustLattice intersects at joins: a lock is held only if every path
// holds it, at the weaker of the two modes.
var mustLattice = flow.MustMap[lockset](func(a, b uint8) (uint8, bool) { return min(a, b), true })

// mayLattice unions at joins: a lock may be held if any path holds it.
var mayLattice = flow.MayMap[lockset](0, func(a, b uint8) uint8 { return max(a, b) })

// lockOp classifies a call as a sync mutex operation, resolving the
// method through go/types so only sync.Mutex/RWMutex (incl. embedded)
// qualify, and returns the canonical key of the lock expression. The
// value summary canonicalizes through pointer locals: `m := &s.mu;
// m.Lock()` keys as "s.mu", so the lock and a later direct s.mu
// access agree on one name (vals may be nil: plain ExprKey).
func lockOp(info *types.Info, vals *flow.FuncValues, call *ast.CallExpr) (key, op string) {
	fn, x := methodCall(info, call)
	if fn == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if key = vals.CanonKey(x); key != "" {
			return key, fn.Name()
		}
	}
	return "", ""
}

// lockTransfer applies one CFG node's mutex operations to a lockset
// (shared by the must- and may-analyses; only the join differs).
func lockTransfer(info *types.Info, vals *flow.FuncValues, n ast.Node, ls lockset) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	key, op := lockOp(info, vals, call)
	switch op {
	case "Lock":
		ls[key] = lockExcl
	case "RLock":
		ls[key] = max(ls[key], lockShared)
	case "Unlock", "RUnlock":
		delete(ls, key)
	}
}

// lockStep is the block step of every lockset analysis (the must- and
// may-analyses differ only in their join). With emit set, onNode, when
// non-nil, sees each node with the lockset held just before it.
func lockStep(info *types.Info, vals *flow.FuncValues, onNode func(n ast.Node, ls lockset)) func(*flow.Block, lockset, bool) lockset {
	return flow.NodeStep(func(n ast.Node, ls lockset, emit bool) {
		if emit && onNode != nil {
			onNode(n, ls)
		}
		lockTransfer(info, vals, n, ls)
	})
}

// holds reports whether any held lock matches the guard name mu (the
// comment names the bare field, the lockset holds the full chain).
func holds(ls lockset, mu string, needExcl bool) bool {
	for k, mode := range ls {
		if k != mu && !strings.HasSuffix(k, "."+mu) {
			continue
		}
		if !needExcl || mode == lockExcl {
			return true
		}
	}
	return false
}

func runLockGuard(pass *Pass) {
	info := pass.TypesInfo()
	guarded := collectGuardedFields(pass, info)
	if len(guarded) == 0 {
		return
	}
	isGuarded := func(obj types.Object) (guardedField, bool) {
		for _, g := range guarded {
			if g.obj == obj {
				return g, true
			}
		}
		return guardedField{}, false
	}
	for fd := range pass.funcDecls() {
		// Caller-holds-the-lock convention: the whole function body
		// (including its literals) runs under the caller's lock.
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			continue
		}
		// One value summary per declaration (the literal bodies share
		// the enclosing function's locals, so aliases established
		// outside a closure canonicalize inside it too).
		vals := flow.NewFuncValues(info, fd.Body)
		for _, body := range flow.BodiesOf(fd) {
			checkLockGuard(pass, info, vals, fd, body.Block, isGuarded)
		}
	}
}

func checkLockGuard(pass *Pass, info *types.Info, vals *flow.FuncValues, fd *ast.FuncDecl, block *ast.BlockStmt, isGuarded func(types.Object) (guardedField, bool)) {
	writes := writeTargets(block)
	litKeys := compositeLitKeys(block)
	flow.Replay(flow.New(block), mustLattice, lockStep(info, vals, func(n ast.Node, ls lockset) {
		for _, part := range shallowParts(n) {
			flow.InspectShallow(part, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.Ident:
					gf, ok := isGuarded(info.Uses[m])
					if !ok || litKeys[m] {
						return true
					}
					isWrite := writes[m]
					if holds(ls, gf.mu, isWrite) {
						return true
					}
					if isWrite && holds(ls, gf.mu, false) {
						pass.Reportf(m.Pos(), "write to %s (guarded by %s) under RLock in %s; writes need the exclusive Lock",
							m.Name, gf.mu, fd.Name.Name)
						return true
					}
					pass.Reportf(m.Pos(), "access to %s (guarded by %s) in %s at a point where %s is not held",
						m.Name, gf.mu, fd.Name.Name, gf.mu)
				case *ast.CallExpr:
					checkLockedCallee(pass, info, m, ls)
				}
				return true
			})
		}
	}))
}

// checkLockedCallee flags calls to module functions named *Locked —
// which by convention expect the caller to hold a lock — made while the
// must-hold lockset is empty.
func checkLockedCallee(pass *Pass, info *types.Info, call *ast.CallExpr, ls lockset) {
	if len(ls) > 0 {
		return
	}
	fn := flow.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Name(), "Locked") {
		return
	}
	if !inModule(fn.Pkg().Path(), pass.Module) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s, which expects the caller to hold a lock, but no lock is held here", fn.Name())
}

// shallowParts returns the sub-nodes of a CFG node that belong to the
// node's own program point. A RangeStmt header node carries its whole
// body in the AST, but those statements live in other blocks — only the
// range expression and bindings are local.
func shallowParts(n ast.Node) []ast.Node {
	if r, ok := n.(*ast.RangeStmt); ok {
		var out []ast.Node
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				out = append(out, e)
			}
		}
		return out
	}
	return []ast.Node{n}
}

// eachWrite calls mark on every write target — an assignment's
// left-hand sides, an IncDec operand, delete's map — among the nodes
// walk visits.
func eachWrite(walk func(visit func(ast.Node) bool), mark func(ast.Expr)) {
	walk(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				mark(n.Args[0])
			}
		}
		return true
	})
}

// writeTargets collects the identifiers written within block (not
// descending into function literals — each is checked as its own
// body).
func writeTargets(block *ast.BlockStmt) map[*ast.Ident]bool {
	writes := map[*ast.Ident]bool{}
	eachWrite(func(visit func(ast.Node) bool) { flow.InspectShallow(block, visit) }, func(e ast.Expr) {
		if id := targetIdent(e); id != nil {
			writes[id] = true
		}
	})
	return writes
}

// targetIdent digs the field/variable identifier out of a write target.
func targetIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return targetIdent(e.X)
	case *ast.StarExpr:
		return targetIdent(e.X)
	}
	return nil
}

func runLockBalance(pass *Pass) {
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		vals := flow.NewFuncValues(info, fd.Body)
		for _, body := range flow.BodiesOf(fd) {
			checkLockBalance(pass, info, vals, fd, body.Block)
		}
	}
}

func checkLockBalance(pass *Pass, info *types.Info, vals *flow.FuncValues, fd *ast.FuncDecl, block *ast.BlockStmt) {
	g := flow.New(block)
	sol := flow.Replay(g, mayLattice, lockStep(info, vals, nil))

	// Locks with a deferred release anywhere in the function are held
	// to exit by design.
	deferred := map[string]bool{}
	for _, d := range g.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, op := lockOp(info, vals, call); op == "Unlock" || op == "RUnlock" {
				deferred[key] = true
			}
			return true
		})
	}

	leaked := map[string]token.Pos{}
	for _, b := range g.Returns() {
		if !sol.Reached[b.Index] {
			continue
		}
		pos := block.Rbrace
		if len(b.Nodes) > 0 {
			pos = b.Nodes[len(b.Nodes)-1].Pos()
		}
		for key := range sol.Out[b.Index] {
			if deferred[key] {
				continue
			}
			if old, ok := leaked[key]; !ok || pos < old {
				leaked[key] = pos
			}
		}
	}
	keys := make([]string, 0, len(leaked))
	for k := range leaked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pass.Reportf(leaked[key], "%s can still be locked when %s returns; release it on every path or defer the unlock",
			key, fd.Name.Name)
	}
}

// collectGuardedFields scans struct declarations for fields whose doc or
// line comment says "guarded by <mu>".
func collectGuardedFields(pass *Pass, info *types.Info) []guardedField {
	var out []guardedField
	note := func(field *ast.Field, mu string) {
		for _, name := range field.Names {
			if obj, ok := info.Defs[name].(*types.Var); ok {
				out = append(out, guardedField{obj: obj, mu: mu})
			}
		}
	}
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
						note(field, m[1])
					}
				}
			}
			return true
		})
	}
	// Package-level guarded variables use the same comment on a var
	// declaration inside a var block; handled via Defs of value specs.
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			gd, ok := n.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, cg := range []*ast.CommentGroup{vs.Doc, vs.Comment} {
					if cg == nil {
						continue
					}
					if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
						for _, name := range vs.Names {
							if obj, ok := info.Defs[name].(*types.Var); ok {
								out = append(out, guardedField{obj: obj, mu: m[1]})
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// compositeLitKeys collects the key identifiers of struct composite
// literals, which the type checker records as field uses but which
// initialize a brand-new value no other goroutine can see.
func compositeLitKeys(body *ast.BlockStmt) map[*ast.Ident]bool {
	keys := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, el := range cl.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					keys[id] = true
				}
			}
		}
		return true
	})
	return keys
}
