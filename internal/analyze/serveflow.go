package analyze

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyze/flow"
)

// Serveflow enforces the HTTP serving layer's protocol. Three rules:
//
//   - WriteHeader after the body has started is a no-op — the first
//     body write committed the status as 200. Flow-sensitive: only
//     paths where a write precedes the WriteHeader are flagged.
//   - A goroutine spawned inside a handler that captures the
//     ResponseWriter or *Request can outlive the handler; the server
//     reuses both once ServeHTTP returns.
//   - A local stream terminator (any module-local value with a finish
//     method that the function calls) must be invoked on every
//     explicit return path, or the NDJSON trailer is silently skipped
//     and the client cannot tell truncation from completion.
//
// Handlers are matched structurally — any function with a
// ResponseWriter parameter from a package whose path ends in "http" —
// so the fixtures' miniature http package exercises the same paths as
// net/http.
var Serveflow = &Analyzer{
	Name: "serveflow",
	Doc:  "HTTP handler protocol: header ordering, goroutine captures, stream terminators",
	Run:  runServeflow,
}

func runServeflow(pass *Pass) {
	info := pass.TypesInfo()
	for fd := range pass.funcDecls() {
		for _, b := range flow.BodiesOf(fd) {
			w, r := handlerParams(info, b.Type)
			if w == nil {
				continue
			}
			checkHeaderOrder(pass, info, b.Block, w)
			checkHandlerGoroutines(pass, info, b.Block, w, r)
		}
		checkStreamTerminator(pass, info, fd)
	}
}

// handlerParams picks out the http.ResponseWriter and *http.Request
// parameters, if present.
func handlerParams(info *types.Info, ft *ast.FuncType) (w, r types.Object) {
	if ft == nil || ft.Params == nil {
		return nil, nil
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		isW := isNamed(t, "/http", "ResponseWriter")
		_, isPtr := t.(*types.Pointer)
		isR := isPtr && isNamed(t, "/http", "Request")
		if !isW && !isR {
			continue
		}
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			if isW && w == nil {
				w = obj
			}
			if isR && r == nil {
				r = obj
			}
		}
	}
	return w, r
}

// checkHeaderOrder runs a may-analysis over the handler's CFG: the
// fact is "a body write may have happened". WriteHeader in a
// written-state block is a no-op and is reported.
func checkHeaderOrder(pass *Pass, info *types.Info, body *ast.BlockStmt, w types.Object) {
	vals := flow.NewFuncValues(info, body)
	lat := flow.Lattice[bool]{
		Init:  func() bool { return false },
		Join:  func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
	}
	step := func(b *flow.Block, in bool, emit bool) bool {
		written := in
		for _, n := range b.Nodes {
			flow.InspectShallow(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if emit && written && isWriteHeader(info, call, w) {
					pass.Reportf(call.Pos(), "WriteHeader after the body has started is a no-op — the first write committed the status as 200; set the header before writing")
				}
				if bodyWrite(info, vals, call, w) {
					written = true
				}
				return true
			})
		}
		return written
	}
	flow.Replay(flow.New(body), lat, step)
}

// isWriteHeader matches w.WriteHeader(...) on the handler's writer.
func isWriteHeader(info *types.Info, call *ast.CallExpr, w types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" {
		return false
	}
	return rootObj(info, sel.X) == w
}

// bodyWrite reports whether the call writes response body bytes:
// w.Write, fmt.Fprint*(w, ...), io.Copy/io.WriteString(w, ...), or
// Encode on a json.NewEncoder(w).
func bodyWrite(info *types.Info, vals *flow.FuncValues, call *ast.CallExpr, w types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name == "Write" && rootObj(info, sel.X) == w {
		return true
	}
	switch {
	case pkgFunc(info, call, "fmt", "Fprint"),
		pkgFunc(info, call, "fmt", "Fprintf"),
		pkgFunc(info, call, "fmt", "Fprintln"),
		pkgFunc(info, call, "io", "Copy"),
		pkgFunc(info, call, "io", "WriteString"):
		return len(call.Args) > 0 && rootObj(info, call.Args[0]) == w
	}
	if sel.Sel.Name == "Encode" {
		if enc, ok := vals.Resolve(sel.X).(*ast.CallExpr); ok && pkgFunc(info, enc, "encoding/json", "NewEncoder") {
			return len(enc.Args) > 0 && rootObj(info, enc.Args[0]) == w
		}
	}
	return false
}

// checkHandlerGoroutines flags go statements whose closure or
// arguments reference the writer or request.
func checkHandlerGoroutines(pass *Pass, info *types.Info, body *ast.BlockStmt, w, r types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var captured types.Object
		ast.Inspect(g.Call, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || captured != nil {
				return captured == nil
			}
			if obj := info.Uses[id]; obj != nil && (obj == w || obj == r) {
				captured = obj
			}
			return true
		})
		if captured != nil {
			pass.Reportf(g.Pos(), "goroutine captures %s — it can outlive the handler, and the server reuses the connection once ServeHTTP returns; copy the data it needs instead", captured.Name())
		}
		return true
	})
}

// checkStreamTerminator: a function that creates a module-local value
// with a finish method and calls it somewhere must call it before
// every explicit return after the value exists.
func checkStreamTerminator(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	type termState struct {
		def    token.Pos
		called bool
	}
	terms := map[types.Object]*termState{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil || !moduleFinishType(pass.Module, obj.Type()) {
				continue
			}
			terms[obj] = &termState{def: id.Pos()}
		}
		return true
	})
	if len(terms) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := finishCallRecv(info, call); obj != nil && terms[obj] != nil {
				terms[obj].called = true
			}
		}
		return true
	})
	g := flow.New(fd.Body)
	for _, obj := range sortedObjs(terms) {
		st := terms[obj]
		if !st.called {
			continue // never finished at all: out of protocol scope
		}
		lat := flow.Lattice[bool]{
			Init:  func() bool { return false },
			Join:  func(a, b bool) bool { return a && b },
			Equal: func(a, b bool) bool { return a == b },
		}
		step := func(b *flow.Block, in bool, emit bool) bool {
			done := in
			for _, n := range b.Nodes {
				if ret, ok := n.(*ast.ReturnStmt); ok && emit && !done && ret.Pos() > st.def {
					pass.Reportf(ret.Pos(), "return without %s.finish — the stream terminator is skipped on this path, so the client cannot tell truncation from completion", obj.Name())
				}
				flow.InspectShallow(n, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && finishCallRecv(info, call) == obj {
						done = true
					}
					return true
				})
			}
			return done
		}
		flow.Replay(g, lat, step)
	}
}

// moduleFinishType reports whether t is (a pointer to) a named type
// declared in this module with a finish method.
func moduleFinishType(module string, t types.Type) bool {
	obj := namedObj(t)
	if obj == nil || !inModule(obj.Pkg().Path(), module) {
		return false
	}
	named := obj.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "finish" {
			return true
		}
	}
	return false
}

// finishCallRecv returns the receiver object of a v.finish(...) call.
func finishCallRecv(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "finish" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}
