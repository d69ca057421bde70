package analyze

import (
	"go/ast"

	"repro/internal/analyze/flow"
)

// DeferLoop flags defer statements inside for/range bodies: deferred
// calls run at function exit, not iteration end, so a defer in a sweep
// loop accumulates until the whole experiment finishes — file handles
// from a per-benchmark loop stay open, locks stay held. A defer inside
// a function literal in a loop is fine (the literal is its own
// function, exiting every iteration), which is exactly the distinction
// the CFG's per-body construction gives for free.
var DeferLoop = &Analyzer{
	Name: "deferloop",
	Doc:  "defer inside a loop body runs at function exit, not iteration end",
	Run:  runDeferLoop,
}

func runDeferLoop(pass *Pass) {
	for fd := range pass.funcDecls() {
		for _, body := range flow.BodiesOf(fd) {
			for _, b := range flow.New(body.Block).Blocks {
				if !b.InLoop {
					continue
				}
				for _, n := range b.Nodes {
					if d, ok := n.(*ast.DeferStmt); ok {
						pass.Reportf(d.Pos(), "defer inside a loop runs at function exit, not iteration end; wrap the iteration in a function or release explicitly")
					}
				}
			}
		}
	}
}
