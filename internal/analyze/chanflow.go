package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analyze/flow"
)

// ChanFlow tracks channel lifecycle states (nil / open / closed)
// through the CFG and reports operations that panic or park at runtime:
// closing a channel that may already be closed, sending on a channel
// that may be closed, and close/send/receive on a channel that is nil
// on every path (a nil-channel op parks forever; close(nil) panics).
// A deferred close counts as a close at every return, so an explicit
// close on a path followed by the deferred one is a double close.
//
// States propagate with may-semantics (union at joins), so "can already
// be closed" findings name a real path, while nil findings require the
// nil state on every path (must) to avoid flagging half-initialized
// branches. Channels are tracked by canonical name (flow.ExprKey);
// reassignment or passing the channel to a call sets an explicit Top
// bit rather than deleting the key — a deleted key rejoins a one-sided
// fact as if the unknown path never existed, which used to turn
// "nil here, armed on the other path" select guards into false
// must-nil findings.
// Close of a receive-only channel is a compile error in Go, so it
// needs no check here — the type checker rejects it first.
var ChanFlow = &Analyzer{
	Name: "chanflow",
	Doc:  "no double-close, send-after-close, or nil-channel operations along any path",
	Run:  runChanFlow,
}

// chanState is a bitmask of possible channel states.
const (
	chanNil    uint8 = 1 << iota // declared but never made
	chanOpen                     // made, not closed
	chanClosed                   // close has executed
	chanTop                      // unknown: reassigned from a call/field, or escaped to one
)

// chanEnv maps canonical channel names to their possible states.
// A missing key means unknown (parameter, field, computed) — no facts,
// no findings.
type chanEnv map[string]uint8

var chanLattice = flow.MayMap[chanEnv](0, func(a, b uint8) uint8 { return a | b })

func runChanFlow(pass *Pass) {
	for fd := range pass.funcDecls() {
		for _, body := range flow.BodiesOf(fd) {
			checkChanFlow(pass, body.Block)
		}
	}
}

func checkChanFlow(pass *Pass, block *ast.BlockStmt) {
	info := pass.TypesInfo()
	g := flow.New(block, stdTerminal(info))
	sol := flow.Replay(g, chanLattice, flow.NodeStep(func(n ast.Node, env chanEnv, emit bool) {
		chanStep(pass, n, env, emit)
	}))

	// A deferred close is a close at every return: if the channel may
	// already be closed when the function returns, the deferred close
	// double-closes it.
	deferredClose := map[string]token.Pos{}
	for _, d := range g.Defers {
		call := d.Call
		if call == nil {
			continue
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "close" && len(call.Args) == 1 {
			if key := flow.ExprKey(call.Args[0]); key != "" {
				deferredClose[key] = d.Pos()
			}
		}
	}
	if len(deferredClose) == 0 {
		return
	}
	hit := map[string]bool{}
	for _, b := range g.Returns() {
		if !sol.Reached[b.Index] {
			continue
		}
		for key := range deferredClose {
			if sol.Out[b.Index][key]&chanClosed != 0 {
				hit[key] = true
			}
		}
	}
	keys := make([]string, 0, len(hit))
	for k := range hit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		pass.Reportf(deferredClose[key], "deferred close of %s runs after a path that already closed it; closing a closed channel panics", key)
	}
}

// chanStep applies one CFG node to the channel-state environment; with
// emit set it also reports findings before updating state.
func chanStep(pass *Pass, n ast.Node, env chanEnv, emit bool) {
	info := pass.TypesInfo()
	for _, op := range flow.ChanOps(info, n) {
		if op.Key == "" {
			continue
		}
		st, known := env[op.Key]
		switch op.Kind {
		case flow.ChanMake:
			// Creation only matters as the RHS of a binding, handled below;
			// ChanOps gives make ops no key, so nothing to track here.
		case flow.ChanSend:
			if emit && known {
				if st&chanClosed != 0 {
					pass.Reportf(op.Pos, "send on %s, which can already be closed here; sending on a closed channel panics", op.Key)
				} else if st == chanNil {
					pass.Reportf(op.Pos, "send on %s, which is nil on every path here; a nil-channel send blocks forever", op.Key)
				}
			}
		case flow.ChanRecv:
			if emit && known && st == chanNil {
				pass.Reportf(op.Pos, "receive from %s, which is nil on every path here; a nil-channel receive blocks forever", op.Key)
			}
		case flow.ChanClose:
			if emit && known {
				if st&chanClosed != 0 {
					pass.Reportf(op.Pos, "close of %s, which can already be closed here; closing a closed channel panics", op.Key)
				} else if st == chanNil {
					pass.Reportf(op.Pos, "close of %s, which is nil on every path here; closing a nil channel panics", op.Key)
				}
			}
			env[op.Key] = chanClosed
		}
	}
	// Bindings: make() opens, nil literal nils, anything else resets to
	// unknown. Declarations without a value start nil.
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				bindChan(info, lhs, n.Rhs[i], env)
			}
		} else {
			// Tuple assignment (v, ok := <-ch and friends): targets of
			// channel type become unknown.
			for _, lhs := range n.Lhs {
				if key := flow.ExprKey(lhs); key != "" && flow.IsChanExpr(info, lhs) {
					delete(env, key)
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
					if !flow.IsChanExpr(info, name) {
						continue
					}
					if i < len(vs.Values) {
						bindChan(info, name, vs.Values[i], env)
					} else if len(vs.Values) == 0 {
						env[name.Name] = chanNil
					}
				}
			}
		}
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		// Passing a channel to a call hands its lifecycle to the callee:
		// drop facts for channel-typed arguments.
		flow.InspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && (id.Name == "close" || id.Name == "len" || id.Name == "cap") {
				return true
			}
			for _, arg := range call.Args {
				if key := flow.ExprKey(arg); key != "" && flow.IsChanExpr(info, arg) {
					delete(env, key)
				}
			}
			return true
		})
	}
}

// bindChan records what an assignment does to a channel-typed target.
func bindChan(info *types.Info, lhs, rhs ast.Expr, env chanEnv) {
	if !flow.IsChanExpr(info, lhs) {
		return
	}
	key := flow.ExprKey(lhs)
	if key == "" {
		return
	}
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && id.Name == "make" {
			env[key] = chanOpen
			return
		}
		env[key] = chanTop
	case *ast.Ident:
		if rhs.Name == "nil" {
			env[key] = chanNil
			return
		}
		// Aliasing another channel: inherit its state if known.
		if st, ok := env[rhs.Name]; ok {
			env[key] = st
			return
		}
		env[key] = chanTop
	default:
		env[key] = chanTop
	}
}
