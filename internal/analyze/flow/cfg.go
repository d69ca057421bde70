// Package flow is the control-flow-graph and dataflow foundation under
// the flow-sensitive lvlint checks (detflow, unitflow, lockguard,
// lockbalance, chanflow, wgbalance, sharedcapture, serveflow,
// deferloop, hotalloc, goleak). It is stdlib-only — go/ast plus
// go/types, no golang.org/x/tools — and deliberately small: basic
// blocks over one function body, a generic forward worklist solver
// with caller-supplied lattice join, the may- and must-map lattices
// (MayMap, MustMap) every map-fact check uses, one solve-then-replay
// driver (Replay) through which checks report, and a module-wide
// function index for interprocedural summaries.
//
// The design point is precision where the repo's invariants need it and
// nothing more: branch/loop/switch edges, early returns, panic
// termination and defer collection are modeled exactly (they are what
// the lockset and taint analyses hinge on); goto is treated as function
// exit (the module does not use it, and the conservative edge keeps the
// solver sound for must-analyses).
//
// Concurrency constructs are first-class. A select branches to exactly
// one comm clause — there is no "skipped every case" edge like a
// switch without default, and an empty select is a dead end (the path
// parks forever, which is what ExitReachable and the goroutine-leak
// analysis key on). go statements are collected on the Graph like
// defers, channel sends are straight-line nodes the channel-state
// analyses transfer over, and WithBlockingCalls lets an analysis mark
// module calls that never return as dead ends too (the interprocedural
// "loops forever" summary of the goleak check rides on it).
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal sequence of nodes that execute
// strictly in order, with edges only at the end.
type Block struct {
	// Index orders blocks deterministically (construction order, which
	// follows source order). The solver's worklist is index-ordered, so
	// analysis results never depend on map iteration.
	Index int
	// Nodes are the statements (and, for branch headers, the governing
	// init/cond expressions) in execution order. Nested function
	// literals are NOT expanded here — a FuncLit body runs when the
	// value is called, not where it is written — so analyses walk each
	// function literal as its own Graph.
	Nodes []ast.Node
	// Succs are the control-flow successors.
	Succs []*Block
	// InLoop marks blocks that execute inside a for/range body — what
	// the deferloop check keys on.
	InLoop bool
	// Panics marks a block terminated by panic or a terminal call
	// (os.Exit, log.Fatal*). Its edge to Exit is an abnormal exit:
	// lockbalance skips it (a panic with a lock held is the deferred-
	// recover path's business, not a lock leak).
	Panics bool
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	// Exit is the single synthetic exit block; every return statement,
	// panic and fall-off-the-end path has an edge to it.
	Exit *Block
	// Blocks lists every block by Index (Entry first, Exit last).
	Blocks []*Block
	// Defers collects the function's defer statements in source order.
	// Deferred calls run at function exit on every path that executed
	// the defer; the analyses that care (lockguard's deferred Unlock,
	// errdrop's deferred Close) consult this list.
	Defers []*ast.DeferStmt
	// Gos collects the function's go statements in source order — the
	// spawn points the concurrency checks (goleak, sharedcapture)
	// analyze. Each statement also appears as a node in its block, so
	// flow-sensitive analyses see the spawn at its program point.
	Gos []*ast.GoStmt
}

// ExitReachable reports whether any path from Entry reaches Exit —
// false exactly when every execution of the body parks forever: an
// unconditional loop with no break or return, an empty select, a
// statement marked by WithBlockingCalls. Panic and terminal-call exits
// count as reachable: a goroutine that crashes or exits the process
// terminates, it does not leak.
func (g *Graph) ExitReachable() bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == g.Exit {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Returns reports the blocks with a normal edge into Exit (return
// statements and the fall-off-the-end block), excluding panic exits.
func (g *Graph) Returns() []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b == g.Exit || b.Panics {
			continue
		}
		for _, s := range b.Succs {
			if s == g.Exit {
				out = append(out, b)
				break
			}
		}
	}
	return out
}

// builder carries CFG-construction state.
type builder struct {
	g *Graph
	// cur is the block under construction; nil after a terminator
	// (return/panic/break/...) until the next statement starts a fresh
	// unreachable block.
	cur *Block
	// frames is the stack of enclosing break/continue targets: loops
	// (cont and brk set) and switches/selects (brk only).
	frames []frame
	// labels maps label names to their loop frame for labeled
	// break/continue; pendingLabel carries a loop label from
	// LabeledStmt to the loop constructor's pushLoop.
	labels       map[string]frame
	pendingLabel string
	// inLoop tracks whether new blocks belong to some loop body.
	inLoop int
	// isTerminal reports whether a call expression never returns
	// (os.Exit, log.Fatal, ...). Supplied by the analyzer so the
	// decision can use type information.
	isTerminal func(*ast.CallExpr) bool
	// isBlocking reports whether a call expression parks forever (a
	// module function whose own CFG cannot reach its exit). Such a
	// statement ends its block as a dead end: no successors, not even
	// Exit.
	isBlocking func(*ast.CallExpr) bool
}

type frame struct {
	// cont is the jump target of continue (nil for switch/select
	// frames, which only catch break); brk of break.
	cont, brk *Block
}

// Option configures CFG construction.
type Option func(*builder)

// WithTerminalCalls marks call expressions that never return: a
// statement calling one terminates its block like panic does. The
// callback runs on every *ast.CallExpr used as a statement.
func WithTerminalCalls(fn func(*ast.CallExpr) bool) Option {
	return func(b *builder) { b.isTerminal = fn }
}

// WithBlockingCalls marks call expressions that park forever (for
// example a module function whose body is an unconditional loop with no
// break or return). A statement calling one ends its block as a dead
// end — no edge to Exit, unlike panic — so exit-reachability analyses
// see the path as non-terminating. The callback runs on every
// *ast.CallExpr used as a statement.
func WithBlockingCalls(fn func(*ast.CallExpr) bool) Option {
	return func(b *builder) { b.isBlocking = fn }
}

// New builds the CFG of one function body. A nil body (declaration
// without definition) yields a two-block graph with Entry wired to
// Exit.
func New(body *ast.BlockStmt, opts ...Option) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]frame{}}
	for _, o := range opts {
		o(b)
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = &Block{Index: -1} // indexed and appended at the end
	b.cur = b.g.Entry
	if body != nil {
		b.stmts(body.List)
	}
	// Fall off the end: implicit return.
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks), InLoop: b.inLoop > 0}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// adopt registers a pre-allocated block (a loop's post/after target
// that break/continue edges already point at) without disturbing the
// edges it has accumulated.
func (b *builder) adopt(blk *Block, inLoop bool) {
	blk.Index = len(b.g.Blocks)
	blk.InLoop = inLoop
	b.g.Blocks = append(b.g.Blocks, blk)
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// block returns the block under construction, starting a fresh
// (unreachable) one after a terminator so later statements still get
// analyzed.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	if n != nil && !isNilNode(n) {
		blk := b.block()
		blk.Nodes = append(blk.Nodes, n)
	}
}

// isNilNode guards against typed-nil interface values (s.Init, s.Cond
// and friends are concrete pointer types behind the ast interfaces).
func isNilNode(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n == nil
	case *ast.ExprStmt:
		return n == nil
	}
	return false
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.block()
		b.cur = b.newBlock()
		b.edge(cond, b.cur)
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		if s.Else != nil {
			b.cur = b.newBlock()
			b.edge(cond, b.cur)
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		after := b.newBlock()
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		if s.Else == nil {
			b.edge(cond, after)
		} else if elseEnd != nil {
			b.edge(elseEnd, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.block()
		cond := b.newBlock()
		b.edge(head, cond)
		if s.Cond != nil {
			cond.Nodes = append(cond.Nodes, s.Cond)
		}
		post := &Block{}  // adopted after the body
		after := &Block{} // ditto
		b.inLoop++
		body := b.newBlock()
		b.edge(cond, body)
		b.pushLoop(frame{cont: post, brk: after})
		b.cur = body
		b.stmt(s.Body)
		bodyEnd := b.cur
		b.popFrame()
		b.adopt(post, true)
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		if bodyEnd != nil {
			b.edge(bodyEnd, post)
		}
		b.edge(post, cond)
		b.inLoop--
		b.adopt(after, b.inLoop > 0)
		if s.Cond != nil { // no condition = no normal exit
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.RangeStmt:
		// The RangeStmt node itself sits in a header block of its own:
		// transfer functions see the key/value bindings once per
		// iteration, and the loop edges model zero-or-more executions
		// of the body. The header must not share a block with the
		// statements before the loop — the back edge would replay them.
		prev := b.block()
		head := b.newBlock()
		b.edge(prev, head)
		head.Nodes = append(head.Nodes, s)
		after := &Block{}
		b.inLoop++
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(frame{cont: head, brk: after})
		b.cur = body
		b.stmt(s.Body)
		bodyEnd := b.cur
		b.popFrame()
		if bodyEnd != nil {
			b.edge(bodyEnd, head)
		}
		b.inLoop--
		b.adopt(after, b.inLoop > 0)
		b.edge(head, after)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.LabeledStmt:
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			b.pendingLabel = s.Label.Name
			b.stmt(inner)
			delete(b.labels, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.block(), b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		from := b.block()
		switch s.Tok {
		case token.FALLTHROUGH:
			// Edge added by caseClauses (it needs the next clause).
			return
		case token.BREAK:
			if f, ok := b.frameFor(s.Label, s.Tok); ok {
				b.edge(from, f.brk)
			}
		case token.CONTINUE:
			if f, ok := b.frameFor(s.Label, s.Tok); ok {
				b.edge(from, f.cont)
			}
		case token.GOTO:
			// Not used in this module; conservative: treat as exit.
			b.edge(from, b.g.Exit)
		}
		b.cur = nil

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)

	case *ast.GoStmt:
		// The spawn is a straight-line node for the spawner (the
		// goroutine body runs concurrently, not here) and is collected
		// on the graph for the concurrency checks.
		b.g.Gos = append(b.g.Gos, s)
		b.add(s)

	case *ast.SendStmt:
		// Straight-line node; the channel-state analyses transfer over
		// it (send-after-close, send-on-nil).
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch {
			case b.terminal(call):
				blk := b.block()
				blk.Panics = true
				b.edge(blk, b.g.Exit)
				b.cur = nil
			case b.isBlocking != nil && b.isBlocking(call):
				// Parks forever: dead end, no exit edge.
				b.block()
				b.cur = nil
			}
		}

	default:
		// Assignments, declarations, empty statements: straight-line
		// nodes.
		b.add(s)
	}
}

// selectStmt builds a select. Unlike a switch, a select with cases
// executes exactly one of them — it blocks until some comm is ready —
// so there is no edge that skips every clause; a default clause is just
// one more branch (taken when nothing is ready). A select with no
// cases parks the goroutine forever: the block becomes a dead end with
// no successors.
func (b *builder) selectStmt(s *ast.SelectStmt) {
	entry := b.block()
	if len(s.Body.List) == 0 {
		b.cur = nil
		return
	}
	after := &Block{}
	var ends []*Block
	// A select is a bare-break target.
	b.frames = append(b.frames, frame{cont: nil, brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		b.edge(entry, body)
		b.cur = body
		if cc.Comm != nil {
			// The comm operation (send or receive, possibly with
			// bindings) executes first in its clause.
			body.Nodes = append(body.Nodes, cc.Comm)
		}
		b.stmts(cc.Body)
		ends = append(ends, b.cur)
	}
	b.popFrame()
	b.adopt(after, b.inLoop > 0)
	for _, end := range ends {
		if end != nil {
			b.edge(end, after)
		}
	}
	b.cur = after
}

// caseClauses builds the switch/type-switch shape: the tag block
// branches to every clause body; each body flows to the after block;
// fallthrough flows to the next body.
func (b *builder) caseClauses(clauses []ast.Stmt) {
	tag := b.block()
	after := &Block{}
	hasDefault := false
	var bodies, ends []*Block
	// A switch is a bare-break target.
	b.frames = append(b.frames, frame{cont: nil, brk: after})
	for _, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		body := b.newBlock()
		b.edge(tag, body)
		bodies = append(bodies, body)
		b.cur = body
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			body.Nodes = append(body.Nodes, e)
		}
		b.stmts(cc.Body)
		ends = append(ends, b.cur)
	}
	b.popFrame()
	b.adopt(after, b.inLoop > 0)
	for i, end := range ends {
		if end == nil {
			continue
		}
		if fallsThrough(clauses[i]) && i+1 < len(bodies) {
			b.edge(end, bodies[i+1])
		} else {
			b.edge(end, after)
		}
	}
	// Without a default the switch can execute no clause at all; give
	// the tag a direct edge to after.
	if !hasDefault {
		b.edge(tag, after)
	}
	b.cur = after
}

func fallsThrough(clause ast.Stmt) bool {
	cs, ok := clause.(*ast.CaseClause)
	if !ok || len(cs.Body) == 0 {
		return false
	}
	br, ok := cs.Body[len(cs.Body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushLoop(f frame) {
	b.frames = append(b.frames, f)
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = f
		b.pendingLabel = ""
	}
}

func (b *builder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

// frameFor resolves a break/continue target: labeled → the label's
// loop; bare break → the innermost frame; bare continue → the
// innermost loop frame (skipping switches).
func (b *builder) frameFor(label *ast.Ident, tok token.Token) (frame, bool) {
	if label != nil {
		f, ok := b.labels[label.Name]
		return f, ok
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if tok == token.CONTINUE && f.cont == nil {
			continue
		}
		return f, true
	}
	return frame{}, false
}

func (b *builder) terminal(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.isTerminal != nil && b.isTerminal(call)
}
