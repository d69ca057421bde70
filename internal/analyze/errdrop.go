package analyze

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyze/flow"
)

// ErrDrop flags call statements that silently discard an error result —
// a bare `f()` expression statement, `defer f()` or `go f()` where f
// returns an error. An explicit `_ = f()` is treated as a deliberate,
// visible discard and allowed. fmt's printers and the in-memory
// strings.Builder / bytes.Buffer writers (whose errors are vacuous) are
// exempt, as is (*tabwriter.Writer).Flush on best-effort CLI tables.
//
// `defer f.Close()` on an *os.File is origin-aware: when f was opened
// for writing (os.Create, os.OpenFile) the deferred Close swallows the
// final flush error — the write looks durable but isn't — so the
// finding says to close explicitly on the success path. A file opened
// with os.Open is read-only and its Close error cannot lose data, so
// that defer is silently allowed; only files of unknown origin (e.g.
// parameters) still ask for an //lvlint:ignore acknowledgement.
//
// The same reasoning generalizes past *os.File: a deferred Close on
// any receiver whose method set has no write-side methods (Write*,
// Flush, Sync, Commit) — an io.ReadCloser like an HTTP response body,
// sql.Rows — cannot lose buffered data and is allowed without
// ceremony.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "discarded error returns outside tests",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		origins := fileOrigins(info, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			deferred := false
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
				deferred = true
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			sig, ok := info.TypeOf(call.Fun).(*types.Signature)
			if !ok || !returnsError(sig) || exemptCall(info, call) {
				return true
			}
			if deferred {
				if obj, ok := fileCloseRecv(info, call); ok {
					switch origins[obj] {
					case originWrite:
						pass.Reportf(call.Pos(), "defer %s on a file opened for writing drops the final flush error — the write can silently be lost; close explicitly on the success path and check the error", calleeName(call))
					case originRead:
						// os.Open: closing a read-only file cannot lose
						// data; the dropped error is vacuous.
					default:
						pass.Reportf(call.Pos(), "defer %s drops Close's error on a file of unknown origin; if it may be open for writing close explicitly, otherwise acknowledge with //lvlint:ignore errdrop <reason>", calleeName(call))
					}
					return true
				}
				if readOnlyCloser(info, call) {
					return true
				}
			}
			pass.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or discard with `_ =`", calleeName(call))
			return true
		})
	}
}

// fileOrigin classifies how an *os.File variable was opened.
type fileOrigin uint8

const (
	originUnknown fileOrigin = iota
	originRead
	originWrite
)

// fileOrigins scans a file for `f, err := os.Create/Open/OpenFile(...)`
// assignments and records each file variable's opening mode.
func fileOrigins(info *types.Info, file *ast.File) map[types.Object]fileOrigin {
	out := map[types.Object]fileOrigin{}
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		var origin fileOrigin
		switch {
		case pkgFunc(info, call, "os", "Create"), pkgFunc(info, call, "os", "OpenFile"):
			origin = originWrite
		case pkgFunc(info, call, "os", "Open"):
			origin = originRead
		default:
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				out[obj] = origin
			}
		}
		return true
	})
	return out
}

// fileCloseRecv matches a `f.Close()` call on an *os.File and returns
// f's object.
func fileCloseRecv(info *types.Info, call *ast.CallExpr) (types.Object, bool) {
	fn, x := methodCall(info, call)
	if fn == nil || fn.Name() != "Close" || !isNamed(fn.Signature().Recv().Type(), "os", "File") {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok || info.Uses[id] == nil {
		return nil, false
	}
	return info.Uses[id], true
}

// readOnlyCloser reports whether call is a niladic Close method
// returning only error on a receiver whose method set has no
// write-side methods (Write*, Flush, Sync, Commit). Closing such a
// value — an io.ReadCloser response body, sql.Rows — cannot lose
// buffered data, so the deferred error drop is harmless by
// construction. *os.File never matches (it has Write); the origin
// rules above govern files.
func readOnlyCloser(info *types.Info, call *ast.CallExpr) bool {
	fn, x := methodCall(info, call)
	if fn == nil || fn.Name() != "Close" || fn.Signature().Params().Len() != 0 || fn.Signature().Results().Len() != 1 {
		return false
	}
	// Scan the receiver EXPRESSION's static type, not the method's
	// declared receiver: io.WriteCloser resolves Close to io.Closer,
	// whose own method set would hide the Write next to it.
	t := info.TypeOf(x)
	if t == nil || hasWriteSide(t) {
		return false
	}
	// Value types can still reach pointer-receiver write methods.
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.(*types.Pointer); !isPtr && hasWriteSide(types.NewPointer(t)) {
			return false
		}
	}
	return true
}

func hasWriteSide(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		name := ms.At(i).Obj().Name()
		if name == "Flush" || name == "Sync" || name == "Commit" || strings.HasPrefix(name, "Write") {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// exemptCall implements the allowlist. The receiver comes from the
// method object's own signature — the selector expression's type is a
// method value with the receiver already stripped.
func exemptCall(info *types.Info, call *ast.CallExpr) bool {
	fn := flow.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return true
	}
	recv := fn.Signature().Recv()
	return recv != nil && (isNamed(recv.Type(), "strings", "Builder") || isNamed(recv.Type(), "bytes", "Buffer") ||
		isNamed(recv.Type(), "text/tabwriter", "Writer"))
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "call"
}
