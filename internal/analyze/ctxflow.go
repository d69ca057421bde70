package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/flow"
)

// CtxFlow enforces context propagation across the call graph. Prepare
// computes a "blocks without ctx" summary: module functions that take
// no context.Context yet perform an operation that can park — a bare
// channel send/receive outside a select, a range over a channel,
// time.Sleep, or a call to another summarized function. Run then
// reports, inside any function that HAS a context in scope:
//
//   - calls to blocks-without-ctx module functions (the context's
//     cancellation cannot reach the thing actually blocking);
//   - time.Sleep calls (un-cancellable; select on ctx.Done() and a
//     timer instead);
//   - unconditional for+select loops with no way out on cancellation:
//     no default, no ctx.Done() case, no receive from a done/quit/stop
//     channel, and no two-value receive that could observe a close;
//   - context.Background()/context.TODO() passed to a module function
//     while a real context is in scope (dropping the caller's
//     cancellation on the floor).
//
// Precision limits: a select's comm ops count as cancellable (some arm
// is chosen; adding a Done case is a local edit), goroutine literals
// are summarized separately from their spawner, and whether a channel
// op *actually* blocks at runtime (buffered, already-closed) is out of
// scope — the check is about whether cancellation can reach the wait.
var CtxFlow = &Analyzer{
	Name:    "ctxflow",
	Doc:     "context propagation: blocking callees take ctx, for+select loops have a cancellation path",
	Prepare: prepareCtxFlow,
	Run:     runCtxFlow,
}

// ctxShared is the Prepare product.
type ctxShared struct {
	ix *flow.Index
	// blocks maps a no-context module function to the position of the
	// blocking operation that put it in the summary.
	blocks map[*types.Func]token.Pos
}

func prepareCtxFlow(mod *Module) any {
	sh := &ctxShared{ix: flow.NewIndex(mod.Sources()), blocks: map[*types.Func]token.Pos{}}
	sh.ix.Fixpoint(func(fi *flow.FuncInfo) bool {
		if fi.Decl.Body == nil {
			return false
		}
		if _, done := sh.blocks[fi.Obj]; done {
			return false
		}
		if hasCtxParam(fi.Obj) {
			return false
		}
		if pos, ok := blockingOpIn(fi.Info, fi.Decl.Body, sh); ok {
			sh.blocks[fi.Obj] = pos
			return true
		}
		return false
	})
	return sh
}

// hasCtxParam reports whether the function's signature carries a
// context.Context (receiver excluded — contexts ride in parameters).
func hasCtxParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamed(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// blockingOpIn scans a function body (skipping goroutine and other
// function literals, which run on their own stacks) for an operation
// that parks without a context: a bare channel op outside a select, a
// range over a channel, time.Sleep, or a call into the blocks summary.
func blockingOpIn(info *types.Info, body *ast.BlockStmt, sh *ctxShared) (token.Pos, bool) {
	// Comm ops of selects are select-governed, not bare.
	comm := map[ast.Node]bool{}
	flow.InspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				comm[cc.Comm] = true
				// The comm statement's own send/recv expression.
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					switch m.(type) {
					case *ast.SendStmt, *ast.UnaryExpr:
						comm[m] = true
					}
					return true
				})
			}
		}
		return true
	})

	var pos token.Pos
	found := false
	flow.InspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !comm[n] {
				pos, found = n.Arrow, true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comm[n] {
				pos, found = n.OpPos, true
			}
		case *ast.RangeStmt:
			if flow.IsChanExpr(info, n.X) {
				pos, found = n.For, true
			}
		case *ast.CallExpr:
			if pkgFunc(info, n, "time", "Sleep") {
				pos, found = n.Pos(), true
				return false
			}
			if fn := flow.Callee(info, n); fn != nil {
				if _, blocks := sh.blocks[fn]; blocks {
					pos, found = n.Pos(), true
					return false
				}
			}
		}
		return !found
	})
	return pos, found
}

func runCtxFlow(pass *Pass) {
	sh := pass.Shared.(*ctxShared)
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		// A context is "in scope" for a body if the declaration has a
		// ctx parameter or the body binds one; literals inherit the
		// enclosing declaration's scope.
		fn, _ := info.Defs[fd.Name].(*types.Func)
		if (fn == nil || !hasCtxParam(fn)) && !bindsContext(info, fd.Body) {
			continue
		}
		for _, body := range flow.BodiesOf(fd) {
			checkCtxFlow(pass, sh, body.Block)
		}
	}
}

// bindsContext reports whether the body defines a context.Context
// variable (ctx, _ := context.WithTimeout(...), signal.NotifyContext,
// and friends).
func bindsContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Name == "_" {
			// A blank binding (func(_ context.Context)) is not a usable
			// context: it cannot be threaded anywhere.
			return true
		}
		if obj, isDef := info.Defs[id]; isDef && obj != nil && isNamed(obj.Type(), "context", "Context") {
			found = true
		}
		return true
	})
	return found
}

func checkCtxFlow(pass *Pass, sh *ctxShared, block *ast.BlockStmt) {
	info := pass.TypesInfo()

	flow.InspectShallow(block, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned body runs with whatever context it captured;
			// it is analyzed as its own body.
			return true
		case *ast.ForStmt:
			if n.Cond == nil {
				checkForSelect(pass, info, n)
			}
		case *ast.CallExpr:
			if pkgFunc(info, n, "time", "Sleep") {
				pass.Reportf(n.Pos(), "time.Sleep in a function with a context in scope cannot be cancelled; select on ctx.Done() and a time.After/Timer instead")
				return true
			}
			if fn := flow.Callee(info, n); fn != nil {
				if pos, blocks := sh.blocks[fn]; blocks {
					src := compactPos(pass.Fset.Position(pos))
					pass.Reportf(n.Pos(), "%s blocks on a channel operation (at %s) but takes no context; cancellation cannot reach it — thread ctx through %s", fn.Name(), src, fn.Name())
				}
			}
			checkBackgroundArg(pass, info, n)
		}
		return true
	})
}

// checkForSelect flags `for { select { ... } }` loops with no
// cancellation path: every iteration re-blocks and nothing observes
// ctx.Done or a close signal.
func checkForSelect(pass *Pass, info *types.Info, loop *ast.ForStmt) {
	if len(loop.Body.List) != 1 {
		return
	}
	sel, ok := loop.Body.List[0].(*ast.SelectStmt)
	if !ok || len(sel.Body.List) == 0 {
		return
	}
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return // default case: never parks
		}
		if cancellableComm(info, cc.Comm) {
			return
		}
		// A clause that leaves the loop is an escape even if its comm is
		// not a cancellation signal.
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.BREAK {
				return
			}
			if _, ok := s.(*ast.ReturnStmt); ok {
				return
			}
		}
	}
	pass.Reportf(loop.For, "for+select loop has no cancellation path: add a case <-ctx.Done() (or a close-signal receive) so the loop can exit")
}

// cancellableComm recognizes comm statements that observe cancellation:
// a receive from a Done()-style method call, from a channel whose name
// signals shutdown, or a two-value receive (which observes a close).
func cancellableComm(info *types.Info, comm ast.Stmt) bool {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		return cancellableRecv(info, s.X, false)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			return cancellableRecv(info, s.Rhs[0], len(s.Lhs) == 2)
		}
	}
	return false
}

func cancellableRecv(info *types.Info, e ast.Expr, twoValue bool) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	if twoValue {
		return true
	}
	switch ch := ast.Unparen(u.X).(type) {
	case *ast.CallExpr:
		// <-ctx.Done(), <-stop.C and friends: a method-call channel is a
		// lifecycle signal.
		if sel, ok := ast.Unparen(ch.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return true
		}
	default:
		name := strings.ToLower(flow.ExprKey(u.X))
		for _, sig := range []string{"done", "quit", "stop", "close", "exit", "cancel", "shutdown"} {
			if strings.Contains(name, sig) {
				return true
			}
		}
	}
	return false
}

// checkBackgroundArg flags context.Background()/TODO() handed to a
// module function while a live context is in scope.
func checkBackgroundArg(pass *Pass, info *types.Info, call *ast.CallExpr) {
	callee := flow.Callee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if !inModule(callee.Pkg().Path(), pass.Module) {
		return
	}
	for _, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			continue
		}
		if pkgFunc(info, inner, "context", "Background") || pkgFunc(info, inner, "context", "TODO") {
			pass.Reportf(arg.Pos(), "context.%s passed to %s while a context is in scope; pass the live ctx so cancellation propagates", ctxCalleeName(info, inner), callee.Name())
		}
	}
}

func ctxCalleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := flow.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "Background"
}
