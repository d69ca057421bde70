package analyze

import (
	"go/ast"
	"go/types"

	"repro/internal/analyze/flow"
)

// GoLeak flags goroutines with no reachable termination path: the
// spawned body's CFG — with select modeled as executing exactly one
// clause and an empty select as a dead end — cannot reach its exit on
// any path. The classic offender is `for { select { case <-ch: ... } }`
// with no return, break, or ctx.Done() case: once the surrounding work
// finishes nobody sends on ch and the goroutine parks forever, which in
// a long-lived process (the planned lvserve) is a leak per request.
//
// The analysis is interprocedural through a "loops forever" summary: a
// named function whose own CFG cannot reach exit marks its call sites
// as dead ends, so `go runLoop()` is flagged even though the spawn site
// itself is a single call. Panic and os.Exit/log.Fatal paths count as
// termination — a crashing goroutine does not leak.
//
// Precision limits: a goroutine blocked on a bare channel receive that
// no one will ever satisfy is NOT flagged (the receive has a normal
// successor; whether a sender exists is undecidable here), and a loop
// bounded only by data ("for i < n" where n never changes) is treated
// as terminating because its condition edge exists.
var GoLeak = &Analyzer{
	Name:    "goleak",
	Doc:     "spawned goroutines must have a reachable termination path (return, break, ctx.Done case)",
	Prepare: prepareGoLeak,
	Run:     runGoLeak,
}

// stdTerminal is the CFG option every check that builds one passes:
// calls into the standard library that never return (os.Exit,
// runtime.Goexit, log.Fatal*) end their path like panic, which the
// flow builder handles itself.
func stdTerminal(info *types.Info) flow.Option {
	return flow.WithTerminalCalls(func(call *ast.CallExpr) bool {
		fn := flow.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
		return false
	})
}

// goleakShared is the Prepare product: the function index plus the
// converged set of module functions that can never return.
type goleakShared struct {
	ix *flow.Index
	// loopsForever marks functions whose body cannot reach its exit on
	// any path. Monotone (false -> true only), so the fixpoint
	// terminates.
	loopsForever map[*types.Func]bool
}

func prepareGoLeak(mod *Module) any {
	sh := &goleakShared{ix: flow.NewIndex(mod.Sources()), loopsForever: map[*types.Func]bool{}}
	sh.ix.Fixpoint(func(fi *flow.FuncInfo) bool {
		if fi.Decl.Body == nil || sh.loopsForever[fi.Obj] {
			return false
		}
		g := sh.graph(fi.Info, fi.Decl.Body)
		if !g.ExitReachable() {
			sh.loopsForever[fi.Obj] = true
			return true
		}
		return false
	})
	return sh
}

// graph builds the termination-aware CFG: terminal calls exit, calls to
// loops-forever module functions are dead ends.
func (sh *goleakShared) graph(info *types.Info, body *ast.BlockStmt) *flow.Graph {
	return flow.New(body,
		stdTerminal(info),
		flow.WithBlockingCalls(func(call *ast.CallExpr) bool {
			fn := flow.Callee(info, call)
			return fn != nil && sh.loopsForever[fn]
		}),
	)
}

func runGoLeak(pass *Pass) {
	sh := pass.Shared.(*goleakShared)
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		for _, body := range flow.BodiesOf(fd) {
			// Each body's graph collects only its own go statements;
			// spawns inside nested literals are seen when that
			// literal's body comes up.
			for _, gs := range sh.graph(info, body.Block).Gos {
				checkGoStmt(pass, sh, info, gs)
			}
		}
	}
}

func checkGoStmt(pass *Pass, sh *goleakShared, info *types.Info, gs *ast.GoStmt) {
	if lit := flow.GoFuncLit(gs); lit != nil {
		lg := sh.graph(info, lit.Body)
		if !lg.ExitReachable() {
			pass.Reportf(gs.Pos(), "goroutine spawned here can never terminate: no path through its body reaches a return; add a ctx.Done()/close-signal case or a loop exit")
		}
		return
	}
	if fn := flow.GoCallee(info, gs); fn != nil && sh.loopsForever[fn] {
		pass.Reportf(gs.Pos(), "goroutine runs %s, which can never return; add a termination path (ctx.Done()/close-signal case) or join it before shutdown", fn.Name())
	}
}
