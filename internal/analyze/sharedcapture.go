package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"repro/internal/analyze/flow"
)

// SharedCapture reports data races born at go statements: a goroutine
// literal captures a mutable variable (map, slice, pointer) from its
// spawner, and the spawner keeps touching that variable after the
// spawn with no happens-before edge and no common lock. The may-alive
// analysis tracks which spawns are still running at each program
// point: a join barrier — any WaitGroup-style .Wait() call or a
// channel receive — retires every live spawn, so the engine's
// spawn-loop + wg.Wait() + return shape is recognized as safe.
//
// Lock discipline is honoured on both sides via the lockguard lattice:
// if every access to the variable inside the goroutine and the
// spawner's access happen under a common held mutex, the pair is not
// reported. Two overlapping goroutines that both capture the same
// variable (at least one writing) are reported at the second spawn.
//
// Aliases are folded through the flow package's value summary: a
// spawner access through a plain copy (p2 := p) conflicts with the
// goroutine's capture of p, because both names are one alias class.
// Remaining precision limits: the barrier heuristic treats ANY
// .Wait()/receive as joining every live spawn (so a Wait on an
// unrelated group silences later findings), and captures of channels,
// funcs, interfaces and sync primitives are deliberately out of scope
// — those are the sanctioned sharing tools.
var SharedCapture = &Analyzer{
	Name: "sharedcapture",
	Doc:  "no unsynchronized spawner access to mutable state captured by a go closure",
	Run:  runSharedCapture,
}

func runSharedCapture(pass *Pass) {
	for fd := range pass.funcDecls() {
		vals := flow.NewFuncValues(pass.TypesInfo(), fd.Body)
		for _, body := range flow.BodiesOf(fd) {
			checkSharedCapture(pass, vals, body.Block)
		}
	}
}

// capturedVar is one mutable variable a goroutine literal captures.
type capturedVar struct {
	obj    *types.Var
	reads  []token.Pos
	writes []token.Pos
	// guard is the set of lock keys held at every access inside the
	// goroutine (empty when any access runs unlocked).
	guard map[string]bool
}

// spawnInfo is one go-literal spawn site and its capture set.
type spawnInfo struct {
	stmt *ast.GoStmt
	caps map[*types.Var]*capturedVar
}

func checkSharedCapture(pass *Pass, vals *flow.FuncValues, block *ast.BlockStmt) {
	info := pass.TypesInfo()
	g := flow.New(block, stdTerminal(info))
	if len(g.Gos) == 0 {
		return
	}

	// Capture sets per spawn; spawns running named functions share no
	// closure state and are skipped.
	spawns := make([]*spawnInfo, 0, len(g.Gos))
	byStmt := map[*ast.GoStmt]int{}
	for _, gs := range g.Gos {
		lit := flow.GoFuncLit(gs)
		if lit == nil {
			continue
		}
		caps := captures(info, vals, lit)
		if len(caps) == 0 {
			continue
		}
		byStmt[gs] = len(spawns)
		spawns = append(spawns, &spawnInfo{stmt: gs, caps: caps})
	}
	if len(spawns) == 0 {
		return
	}

	// May-alive spawn analysis: bit i set means spawn i may still be
	// running. Joins union; barriers clear.
	type aliveSet uint64
	lat := flow.Lattice[aliveSet]{
		Init:  func() aliveSet { return 0 },
		Join:  func(a, b aliveSet) aliveSet { return a | b },
		Equal: func(a, b aliveSet) bool { return a == b },
	}
	step := func(n ast.Node, alive aliveSet) aliveSet {
		if isJoinBarrier(info, n) {
			return 0
		}
		if gs, ok := n.(*ast.GoStmt); ok {
			if i, tracked := byStmt[gs]; tracked && i < 64 {
				alive |= 1 << uint(i)
			}
		}
		return alive
	}
	// Spawner-side lockset (must-hold), same lattice lockguard uses.
	lockSol := flow.Replay(g, mustLattice, lockStep(info, vals, nil))

	type finding struct {
		pos   token.Pos
		spawn *spawnInfo
		v     *types.Var
		write bool
	}
	var findings []finding
	seen := map[[2]any]bool{}
	note := func(pos token.Pos, sp *spawnInfo, v *types.Var, write bool) {
		k := [2]any{sp.stmt, v}
		if seen[k] {
			return
		}
		seen[k] = true
		findings = append(findings, finding{pos, sp, v, write})
	}

	flow.Replay(g, lat, func(b *flow.Block, alive aliveSet, emit bool) aliveSet {
		var locks lockset
		if emit {
			locks = maps.Clone(lockSol.In[b.Index])
		}
		for _, n := range b.Nodes {
			if emit && alive != 0 {
				checkNodeAccesses(info, vals, n, uint64(alive), spawns, locks, byStmt, note)
			}
			alive = step(n, alive)
			if emit {
				lockTransfer(info, vals, n, locks)
			}
		}
		return alive
	})

	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		spawnLine := pass.Fset.Position(f.spawn.stmt.Pos()).Line
		action := "reads"
		if cap := f.spawn.caps[f.v]; cap != nil && len(cap.writes) > 0 {
			action = "writes"
		}
		verb := "accesses"
		if f.write {
			verb = "writes"
		}
		pass.Reportf(f.pos, "%s %s %s while the goroutine spawned at line %d %s it; no join or common lock orders the two — add a mutex on both sides or wait for the goroutine first",
			"spawner", verb, f.v.Name(), spawnLine, action)
	}
}

// checkNodeAccesses finds conflicting accesses at one spawner node
// against every live spawn's capture set.
func checkNodeAccesses(info *types.Info, vals *flow.FuncValues, n ast.Node, alive uint64, spawns []*spawnInfo, locks lockset, byStmt map[*ast.GoStmt]int, note func(token.Pos, *spawnInfo, *types.Var, bool)) {
	// A later go statement overlapping an earlier one: conflicts between
	// the two capture sets, reported at the later spawn.
	if gs, ok := n.(*ast.GoStmt); ok {
		j, tracked := byStmt[gs]
		if !tracked {
			return
		}
		cur := spawns[j]
		for i, sp := range spawns {
			if i == j || alive&(1<<uint(i)) == 0 {
				continue
			}
			for v, a := range sp.caps {
				b := capOf(vals, cur.caps, v)
				if b == nil {
					continue
				}
				if len(a.writes) == 0 && len(b.writes) == 0 {
					continue
				}
				if commonGuard(a.guard, b.guard) {
					continue
				}
				note(gs.Pos(), sp, v, len(b.writes) > 0)
			}
		}
		return
	}

	writes := writeRoots(info, func(visit func(ast.Node) bool) {
		for _, part := range shallowParts(n) {
			flow.InspectShallow(part, visit)
		}
	})
	for _, part := range shallowParts(n) {
		flow.InspectShallow(part, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			isWrite := writes[v]
			for i, sp := range spawns {
				if alive&(1<<uint(i)) == 0 {
					continue
				}
				cap := capOf(vals, sp.caps, v)
				if cap == nil {
					continue
				}
				// Conflict requires a write on at least one side.
				if !isWrite && len(cap.writes) == 0 {
					continue
				}
				// Common lock held by the spawner here and by every
				// goroutine-side access: properly guarded.
				if guardedHere(locks, cap.guard) {
					continue
				}
				// Report the goroutine's name for the variable (cap.obj):
				// for an alias access the spawner's name differs, but the
				// conflict is on the captured object.
				note(id.Pos(), sp, cap.obj, isWrite)
			}
			return true
		})
	}
}

// capOf resolves v against a spawn's capture set through the alias
// classes: an access through a plain copy (q := p) conflicts with a
// capture of p. Ties (several captured aliases of v) resolve to the
// earliest-declared one, keeping output deterministic.
func capOf(vals *flow.FuncValues, caps map[*types.Var]*capturedVar, v *types.Var) *capturedVar {
	if c := caps[v]; c != nil {
		return c
	}
	var best *capturedVar
	for cv, c := range caps {
		if !vals.SameClass(cv, v) {
			continue
		}
		if best == nil || c.obj.Pos() < best.obj.Pos() {
			best = c
		}
	}
	return best
}

// isJoinBarrier recognizes happens-before edges that retire live
// spawns: any .Wait() method call (sync.WaitGroup and friends) and any
// channel receive at this node.
func isJoinBarrier(info *types.Info, n ast.Node) bool {
	barrier := false
	flow.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				barrier = true
				return false
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				barrier = true
				return false
			}
		case *ast.RangeStmt:
			if flow.IsChanExpr(info, m.X) {
				barrier = true
				return false
			}
		}
		return !barrier
	})
	return barrier
}

// captures collects the mutable variables a goroutine literal captures
// from the enclosing body: map-, slice-, pointer- and struct-typed
// locals (and parameters) defined outside the literal. Channels,
// funcs, interfaces, sync primitives and immutable basics are the
// sanctioned sharing mechanisms and are excluded.
func captures(info *types.Info, vals *flow.FuncValues, lit *ast.FuncLit) map[*types.Var]*capturedVar {
	caps := map[*types.Var]*capturedVar{}
	// Nested literals count: they all run on the goroutine's side of
	// the race.
	writes := writeRoots(info, func(visit func(ast.Node) bool) { ast.Inspect(lit.Body, visit) })
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared outside the literal but not at package
		// level (package state is lockguard's domain).
		if v.Parent() == nil || v.Pkg() == nil {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own params/locals
		}
		if pkgScoped(v) || !mutableCaptureType(v.Type()) {
			return true
		}
		c := caps[v]
		if c == nil {
			c = &capturedVar{obj: v}
			caps[v] = c
		}
		if writes[v] {
			c.writes = append(c.writes, id.Pos())
		} else {
			c.reads = append(c.reads, id.Pos())
		}
		return true
	})
	for _, c := range caps {
		c.guard = goroutineGuard(info, vals, lit, c.obj)
	}
	return caps
}

// pkgScoped reports whether the variable lives at package scope.
func pkgScoped(v *types.Var) bool {
	return v.Parent() == v.Pkg().Scope()
}

// mutableCaptureType selects the types whose concurrent mutation is a
// plain data race: maps, slices, pointers and struct values — except
// the sync package's own primitives, whose whole point is cross-
// goroutine sharing.
func mutableCaptureType(t types.Type) bool {
	if obj := namedObj(t); obj != nil && (obj.Pkg().Path() == "sync" || obj.Pkg().Path() == "sync/atomic") {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Map, *types.Slice, *types.Pointer:
		return true
	case *types.Struct:
		return u.NumFields() > 0
	}
	return false
}

// writeRoots collects, by root object, the variables written among
// the nodes walk visits (see eachWrite).
func writeRoots(info *types.Info, walk func(visit func(ast.Node) bool)) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	eachWrite(walk, func(e ast.Expr) {
		if obj, ok := rootObj(info, e).(*types.Var); ok && obj != nil {
			out[obj] = true
		}
	})
	return out
}

// goroutineGuard computes the lock keys held at EVERY access to v
// inside the literal (flow-sensitive over the literal's own CFG).
// Empty means at least one access runs unlocked.
func goroutineGuard(info *types.Info, vals *flow.FuncValues, lit *ast.FuncLit, v *types.Var) map[string]bool {
	var guard map[string]bool
	flow.Replay(flow.New(lit.Body), mustLattice, lockStep(info, vals, func(n ast.Node, ls lockset) {
		for _, part := range shallowParts(n) {
			flow.InspectShallow(part, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok || info.Uses[id] != types.Object(v) {
					return true
				}
				held := map[string]bool{}
				for k := range ls {
					held[k] = true
				}
				if guard == nil {
					guard = held
				} else {
					for k := range guard {
						if !held[k] {
							delete(guard, k)
						}
					}
				}
				return true
			})
		}
	}))
	if guard == nil {
		return map[string]bool{}
	}
	return guard
}

// guardedHere reports whether some lock key is held both by the
// spawner at this point and by every goroutine-side access.
func guardedHere(locks lockset, guard map[string]bool) bool {
	for k := range locks {
		if guard[k] {
			return true
		}
		// The goroutine may name the same mutex through a selector
		// chain the spawner spells differently only in its tail; match
		// on the final component as lockguard's holds() does.
		for gk := range guard {
			if strings.HasSuffix(k, "."+gk) || strings.HasSuffix(gk, "."+k) {
				return true
			}
		}
	}
	return false
}

func commonGuard(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}
