package analyze

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyze/flow"
)

// Frameflow enforces the distribution layer's wire and durability
// protocol in packages whose import path ends in "dist". Three rules:
//
//   - A frame length decoded from the wire (binary.BigEndian.UintNN
//     and friends) must be bound-checked before it sizes an
//     allocation, or a corrupt four-byte header allocates gigabytes.
//   - A supervisor type that sends the hello handshake must have some
//     method that sends (or handles) bye — without it, workers can
//     only ever exit by being killed and the drain path is dead code.
//   - os.Rename that publishes written bytes must be preceded by a
//     Sync: rename is atomic on the namespace, not the data, and a
//     crash can leave the destination truncated or empty.
var Frameflow = &Analyzer{
	Name: "frameflow",
	Doc:  "dist wire protocol: length caps, hello/bye pairing, durable rename",
	Run:  runFrameflow,
}

func runFrameflow(pass *Pass) {
	if !pkgIn(pass.Pkg.Path, "dist") {
		return
	}
	info := pass.TypesInfo()
	type byeState struct {
		hello token.Pos
		bye   bool
	}
	recvs := map[string]*byeState{}
	var recvOrder []string
	for fd := range pass.funcDecls() {
		for _, b := range flow.BodiesOf(fd) {
			checkFrameLength(pass, info, b.Block)
			checkDurableRename(pass, info, b.Block)
		}
		name := recvTypeName(fd)
		if name == "" {
			continue
		}
		st := recvs[name]
		if st == nil {
			st = &byeState{}
			recvs[name] = st
			recvOrder = append(recvOrder, name)
		}
		if pos := mentionPos(fd.Body, "frameHello"); pos != token.NoPos && (st.hello == token.NoPos || pos < st.hello) {
			st.hello = pos
		}
		if mentionPos(fd.Body, "frameBye") != token.NoPos {
			st.bye = true
		}
	}
	for _, name := range recvOrder {
		st := recvs[name]
		if st.hello != token.NoPos && !st.bye {
			pass.Reportf(st.hello, "%s sends the hello handshake but none of its methods ever sends bye — workers can only exit by being killed; pair the handshake with a bye on the shutdown path", name)
		}
	}
}

// checkFrameLength flags locals decoded from the wire that size an
// allocation before any comparison bounds them.
func checkFrameLength(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	tainted := map[types.Object]bool{}
	// Two passes pick up one conversion hop (n := binary...; m := int(n)).
	for i := 0; i < 2; i++ {
		flow.InspectShallow(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return true
			}
			rhs := ast.Unparen(as.Rhs[0])
			if call, ok := rhs.(*ast.CallExpr); ok {
				if wireLengthRead(info, call) {
					tainted[obj] = true
				} else if len(call.Args) == 1 {
					if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && tainted[rootObj(info, call.Args[0])] {
						tainted[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(tainted) == 0 {
		return
	}
	var guards []token.Pos
	flow.InspectShallow(body, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch bin.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			if tainted[rootObj(info, bin.X)] || tainted[rootObj(info, bin.Y)] {
				guards = append(guards, bin.Pos())
			}
		}
		return true
	})
	guarded := func(pos token.Pos) bool {
		for _, g := range guards {
			if g < pos {
				return true
			}
		}
		return false
	}
	flow.InspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !builtinCall(info, call, "make") {
			return true
		}
		for _, arg := range call.Args[1:] {
			usesTainted := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && tainted[info.Uses[id]] {
					usesTainted = true
				}
				return true
			})
			if usesTainted && !guarded(call.Pos()) {
				pass.Reportf(call.Pos(), "frame length decoded from the wire sizes this allocation before any bound check — a corrupt header allocates arbitrarily; compare against the frame cap first")
				return true
			}
		}
		return true
	})
}

// wireLengthRead matches the UintNN reads of encoding/binary's byte
// orders (binary.BigEndian.Uint32 and friends).
func wireLengthRead(info *types.Info, call *ast.CallExpr) bool {
	fn, _ := methodCall(info, call)
	if fn == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "Uint16", "Uint32", "Uint64":
		return true
	}
	return false
}

// checkDurableRename flags os.Rename in a function that wrote file
// bytes but never synced them before the rename.
func checkDurableRename(pass *Pass, info *types.Info, body *ast.BlockStmt) {
	var renames []*ast.CallExpr
	wrote := false
	var syncs []token.Pos
	flow.InspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case pkgFunc(info, call, "os", "Rename"):
			renames = append(renames, call)
		case pkgFunc(info, call, "os", "WriteFile"):
			wrote = true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Write", "WriteString":
				wrote = true
			case "Sync":
				syncs = append(syncs, call.Pos())
			}
		}
		return true
	})
	for _, ren := range renames {
		if !wrote {
			continue
		}
		synced := false
		for _, s := range syncs {
			if s < ren.Pos() {
				synced = true
				break
			}
		}
		if !synced {
			pass.Reportf(ren.Pos(), "os.Rename publishes bytes that were never synced — rename is atomic on the name, not the data, and a crash can leave the file truncated; Sync before renaming (see the checkpoint helper)")
		}
	}
}

// recvTypeName returns the receiver's base type name, or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// mentionPos returns the first position where the identifier name
// appears in n, or NoPos.
func mentionPos(n ast.Node, name string) token.Pos {
	pos := token.NoPos
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			if pos == token.NoPos || id.Pos() < pos {
				pos = id.Pos()
			}
		}
		return true
	})
	return pos
}

// builtinCall reports whether the call invokes the named builtin.
func builtinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
