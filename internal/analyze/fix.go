package analyze

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"

	"repro/internal/analyze/flow"
)

// ApplyFixes gathers every suggested fix in diags, applies them to the
// source files (edits sorted back-to-front so offsets stay valid),
// runs the result through gofmt, and returns the new contents keyed by
// filename. Nothing is written to disk — the caller decides.
// Overlapping edits in one file are an error rather than a silent
// misapply.
func ApplyFixes(fset *token.FileSet, diags []Diagnostic) (map[string][]byte, error) {
	type edit struct {
		start, end int
		text       string
	}
	perFile := map[string][]edit{}
	for _, d := range diags {
		for _, fix := range d.Fixes {
			for _, te := range fix.Edits {
				p, e := fset.Position(te.Pos), fset.Position(te.End)
				if p.Filename == "" || p.Filename != e.Filename {
					return nil, fmt.Errorf("analyze: fix for %s has an invalid edit range", d.Position)
				}
				perFile[p.Filename] = append(perFile[p.Filename], edit{p.Offset, e.Offset, te.NewText})
			}
		}
	}
	out := map[string][]byte{}
	for name, edits := range perFile {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		sort.Slice(edits, func(i, j int) bool {
			if edits[i].start != edits[j].start {
				return edits[i].start > edits[j].start
			}
			if edits[i].end != edits[j].end {
				return edits[i].end > edits[j].end
			}
			return edits[i].text > edits[j].text
		})
		// Two findings can carry the same rewrite (e.g. both arguments
		// of one print tainted by the same range); identical edits are
		// one edit.
		dedup := edits[:0]
		for i, e := range edits {
			if i == 0 || e != edits[i-1] {
				dedup = append(dedup, e)
			}
		}
		edits = dedup
		for i := 1; i < len(edits); i++ {
			if edits[i].end > edits[i-1].start {
				return nil, fmt.Errorf("analyze: overlapping fixes in %s", name)
			}
		}
		for _, e := range edits {
			if e.start < 0 || e.end > len(src) || e.start > e.end {
				return nil, fmt.Errorf("analyze: fix range out of bounds in %s", name)
			}
			src = append(src[:e.start], append([]byte(e.text), src[e.end:]...)...)
		}
		formatted, err := format.Source(src)
		if err != nil {
			return nil, fmt.Errorf("analyze: fixed %s does not format: %w", name, err)
		}
		out[name] = formatted
	}
	return out, nil
}

// sortedRangeFix builds the sorted-key rewrite for a map range whose
// iteration order leaked into output. rangePos locates the RangeStmt
// (possibly in a different function than the sink — sorting at the
// source fixes every downstream sink). The rewrite
//
//	for k, v := range m { ... }
//
// becomes
//
//	keys := make([]K, 0, len(m))
//	for k := range m {
//		keys = append(keys, k)
//	}
//	sort.Strings(keys)
//	for _, k := range keys {
//		v := m[k]
//		...
//	}
//
// Only mechanically safe cases qualify: `:=` ranges with a named key,
// a side-effect-free range expression, an orderable key type, a free
// "keys" identifier, and (when "sort" needs importing) a parenthesized
// import block to slot it into.
func sortedRangeFix(pass *Pass, rangePos token.Pos) (SuggestedFix, bool) {
	var rs *ast.RangeStmt
	var file *ast.File
	for _, f := range pass.Files() {
		if f.Pos() <= rangePos && rangePos < f.End() {
			file = f
			ast.Inspect(f, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok && r.Pos() == rangePos {
					rs = r
					return false
				}
				return true
			})
		}
	}
	if rs == nil || file == nil || rs.Tok != token.DEFINE {
		return SuggestedFix{}, false
	}
	key, ok := ast.Unparen(rs.Key).(*ast.Ident)
	if !ok || key.Name == "_" {
		return SuggestedFix{}, false
	}
	if flow.ExprKey(rs.X) == "" { // calls/indexing: not safe to evaluate twice
		return SuggestedFix{}, false
	}
	info := pass.TypesInfo()
	keyType := info.TypeOf(key)
	sortCall, typeName, ok := sortFor(keyType, pass.TypesPkg())
	if !ok {
		return SuggestedFix{}, false
	}
	keysName := freeName(info, rs, "keys")
	if keysName == "" {
		return SuggestedFix{}, false
	}

	var xbuf bytes.Buffer
	if err := printer.Fprint(&xbuf, pass.Fset, rs.X); err != nil {
		return SuggestedFix{}, false
	}
	mText := xbuf.String()

	col := pass.Fset.Position(rs.Pos()).Column
	indent := strings.Repeat("\t", col-1)
	nl := "\n" + indent

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))", keysName, typeName, mText)
	b.WriteString(nl)
	fmt.Fprintf(&b, "for %s := range %s {", key.Name, mText)
	b.WriteString(nl + "\t")
	fmt.Fprintf(&b, "%s = append(%s, %s)", keysName, keysName, key.Name)
	b.WriteString(nl + "}")
	b.WriteString(nl)
	b.WriteString(fmt.Sprintf(sortCall, keysName))
	b.WriteString(nl)
	fmt.Fprintf(&b, "for _, %s := range %s ", key.Name, keysName)

	fix := SuggestedFix{
		Message: "iterate the map in sorted key order",
		Edits: []TextEdit{{
			Pos: rs.Pos(), End: rs.Body.Lbrace, NewText: b.String(),
		}},
	}
	if v, ok := ast.Unparen(rs.Value).(*ast.Ident); ok && v != nil && v.Name != "_" {
		fix.Edits = append(fix.Edits, TextEdit{
			Pos: rs.Body.Lbrace + 1, End: rs.Body.Lbrace + 1,
			NewText: fmt.Sprintf("\n%s\t%s := %s[%s]", indent, v.Name, mText, key.Name),
		})
	}
	if imp, ok := importEdit(pass.Fset, file, "sort"); ok {
		fix.Edits = append(fix.Edits, imp)
	} else if !hasImport(file, "sort") {
		return SuggestedFix{}, false
	}
	return fix, true
}

// sortFor picks the sort call and element type name for a key type.
// The format string takes the keys-slice name.
func sortFor(t types.Type, pkg *types.Package) (sortCall, typeName string, ok bool) {
	if t == nil {
		return "", "", false
	}
	typeName = types.TypeString(t, types.RelativeTo(pkg))
	if strings.Contains(typeName, ".") || strings.Contains(typeName, " ") {
		return "", "", false // foreign or exotic type: would need imports
	}
	b, isBasic := t.Underlying().(*types.Basic)
	if !isBasic {
		return "", "", false
	}
	switch {
	case b.Kind() == types.String && typeName == "string":
		return "sort.Strings(%s)", typeName, true
	case b.Kind() == types.Int && typeName == "int":
		return "sort.Ints(%s)", typeName, true
	case b.Kind() == types.Float64 && typeName == "float64":
		return "sort.Float64s(%s)", typeName, true
	case b.Info()&(types.IsInteger|types.IsFloat|types.IsString) != 0:
		return "sort.Slice(%s, func(i, j int) bool { return %[1]s[i] < %[1]s[j] })", typeName, true
	}
	return "", "", false
}

// freeName returns base if it is unused in the scopes enclosing n,
// otherwise base+"2" etc., giving up after a few tries.
func freeName(info *types.Info, n ast.Node, base string) string {
	used := map[string]bool{}
	// Conservative: any identifier spelled the same anywhere in the
	// enclosing function counts as taken. Finding the function is not
	// worth the plumbing; scan outward from the node's scope chain.
	for _, scope := range info.Scopes {
		if scope.Contains(n.Pos()) {
			for _, name := range scope.Names() {
				used[name] = true
			}
			inner := scope.Innermost(n.Pos())
			for s := inner; s != nil; s = s.Parent() {
				for _, name := range s.Names() {
					used[name] = true
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		cand := base
		if i > 0 {
			cand = fmt.Sprintf("%s%d", base, i+1)
		}
		if !used[cand] {
			return cand
		}
	}
	return ""
}

// seedThreadFix rewrites a global rand call (rand.Intn(...)) to use an
// in-scope seeded *rand.Rand instance of the same rand package (path,
// math/rand or math/rand/v2), when exactly one is visible and the file
// keeps other uses of the rand import.
func seedThreadFix(pass *Pass, sel *ast.SelectorExpr, path string) (SuggestedFix, bool) {
	info := pass.TypesInfo()
	var fd *ast.FuncDecl
	var file *ast.File
	for _, f := range pass.Files() {
		if f.Pos() <= sel.Pos() && sel.Pos() < f.End() {
			file = f
			for _, decl := range f.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil && d.Pos() <= sel.Pos() && sel.Pos() < d.End() {
					fd = d
				}
			}
		}
	}
	if fd == nil || file == nil {
		return SuggestedFix{}, false
	}

	// Candidate generators: parameters and locals of type *rand.Rand
	// declared before the call site.
	var names []string
	seen := map[string]bool{}
	for id, obj := range info.Defs {
		if obj == nil || id.Pos() >= sel.Pos() || id.Pos() < fd.Pos() {
			continue
		}
		if !isNamed(obj.Type(), path, "Rand") {
			continue
		}
		if !seen[obj.Name()] {
			seen[obj.Name()] = true
			names = append(names, obj.Name())
		}
	}
	if len(names) != 1 {
		return SuggestedFix{}, false
	}

	// Replacing this use must not orphan the rand import.
	uses := 0
	ast.Inspect(file, func(n ast.Node) bool {
		s, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := s.X.(*ast.Ident); ok {
			if pkg, ok := info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == path {
				uses++
			}
		}
		return true
	})
	if uses < 2 {
		return SuggestedFix{}, false
	}

	return SuggestedFix{
		Message: fmt.Sprintf("draw from the seeded generator %s instead of the global math/rand state", names[0]),
		Edits: []TextEdit{{
			Pos: sel.X.Pos(), End: sel.X.End(), NewText: names[0],
		}},
	}, true
}

// importEdit returns an insertion that adds path to the file's
// parenthesized import block in sorted position; ok is false when the
// import already exists or there is no block to extend.
func importEdit(fset *token.FileSet, file *ast.File, path string) (TextEdit, bool) {
	if hasImport(file, path) {
		return TextEdit{}, false
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		quoted := fmt.Sprintf("%q", path)
		insert := gd.Lparen + 1
		for _, spec := range gd.Specs {
			is := spec.(*ast.ImportSpec)
			if is.Path.Value < quoted {
				insert = is.End()
			}
		}
		if insert == gd.Lparen+1 {
			return TextEdit{Pos: insert, End: insert, NewText: "\n\t" + quoted}, true
		}
		return TextEdit{Pos: insert, End: insert, NewText: "\n\t" + quoted}, true
	}
	return TextEdit{}, false
}

func hasImport(file *ast.File, path string) bool {
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == path {
			return true
		}
	}
	return false
}
