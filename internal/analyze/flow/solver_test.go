package flow

import (
	"go/ast"
	"strings"
	"testing"
)

// assignedSet is the toy lattice for the solver tests: the set of
// variable names definitely (must) or possibly (may) assigned.
type assignedSet map[string]bool

func copySet(s assignedSet) assignedSet {
	out := make(assignedSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func mustLat() Lattice[assignedSet] {
	return Lattice[assignedSet]{
		Init: func() assignedSet { return assignedSet{} },
		Join: func(a, b assignedSet) assignedSet { // intersection
			out := assignedSet{}
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: setsEqual,
	}
}

func mayLat() Lattice[assignedSet] {
	return Lattice[assignedSet]{
		Init: func() assignedSet { return assignedSet{} },
		Join: func(a, b assignedSet) assignedSet { // union
			out := copySet(a)
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: setsEqual,
	}
}

func setsEqual(a, b assignedSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func assignTransfer(b *Block, in assignedSet) assignedSet {
	out := copySet(in)
	for _, n := range b.Nodes {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
	}
	return out
}

// exitFacts joins the solver's OUT over all normal-return blocks.
func exitFacts(g *Graph, lat Lattice[assignedSet], sol *Solution[assignedSet]) assignedSet {
	var out assignedSet
	first := true
	for _, b := range g.Returns() {
		if !sol.Reached[b.Index] {
			continue
		}
		if first {
			out = copySet(sol.Out[b.Index])
			first = false
		} else {
			out = lat.Join(out, sol.Out[b.Index])
		}
	}
	if out == nil {
		out = assignedSet{}
	}
	return out
}

func TestMustAnalysisDiamond(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x, y, z int",
		"if c {",
		"\tx = 1",
		"\ty = 1",
		"} else {",
		"\tx = 2",
		"}",
		"z = 3",
		"return x + y + z",
	}, "\n"))
	g := New(body)
	lat := mustLat()
	sol := Solve(g, lat, assignTransfer)
	facts := exitFacts(g, lat, sol)
	if !facts["x"] || !facts["z"] {
		t.Fatalf("x and z are assigned on all paths, got %v", facts)
	}
	if facts["y"] {
		t.Fatalf("y is assigned on only one path; must-analysis should drop it, got %v", facts)
	}
}

func TestMayAnalysisDiamond(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x, y int",
		"if c {",
		"\ty = 1",
		"} else {",
		"\tx = 2",
		"}",
		"return x + y",
	}, "\n"))
	g := New(body)
	lat := mayLat()
	sol := Solve(g, lat, assignTransfer)
	facts := exitFacts(g, lat, sol)
	if !facts["x"] || !facts["y"] {
		t.Fatalf("may-analysis keeps both branches, got %v", facts)
	}
}

// TestLoopCarriedFact pins the fixpoint behavior the back-edge bug
// broke: a fact established inside the loop body must reach the code
// after the loop, without the initializer before the loop being
// replayed.
func TestLoopCarriedFact(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x int",
		"for k := range m {",
		"\tx = k[0] // may-assigns x inside the loop",
		"\t_ = k",
		"}",
		"return x",
	}, "\n"))
	g := New(body)
	lat := mayLat()
	sol := Solve(g, lat, assignTransfer)
	facts := exitFacts(g, lat, sol)
	if !facts["x"] {
		t.Fatalf("loop-body assignment must be visible after the loop (may), got %v", facts)
	}

	// Under must-semantics the loop may run zero times, so x is NOT
	// definitely assigned after it.
	mlat := mustLat()
	msol := Solve(g, mlat, assignTransfer)
	mfacts := exitFacts(g, mlat, msol)
	if mfacts["x"] {
		t.Fatalf("zero-iteration path exists; must-analysis cannot keep x, got %v", mfacts)
	}
}

// TestUnreachableBlocksNotJoined: facts do not leak out of dead code.
func TestUnreachableBlocksNotJoined(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x int",
		"return x",
		"x = 9", // dead
	}, "\n"))
	g := New(body)
	lat := mayLat()
	sol := Solve(g, lat, assignTransfer)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "x" && sol.Reached[b.Index] {
					t.Fatal("block after return should be unreached")
				}
			}
		}
	}
	facts := exitFacts(g, lat, sol)
	if facts["x"] {
		t.Fatalf("dead assignment leaked: %v", facts)
	}
}

// TestSolverDeterministic: two runs over the same graph produce
// identical solutions (the worklist pops lowest index first).
func TestSolverDeterministic(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x, y int",
		"for i := 0; i < 3; i++ {",
		"\tif c {",
		"\t\tx = 1",
		"\t} else {",
		"\t\ty = 2",
		"\t}",
		"}",
		"return x + y",
	}, "\n"))
	g := New(body)
	lat := mayLat()
	a := Solve(g, lat, assignTransfer)
	b := Solve(g, lat, assignTransfer)
	for i := range g.Blocks {
		if a.Reached[i] != b.Reached[i] || !setsEqual(a.Out[i], b.Out[i]) {
			t.Fatalf("solver is not deterministic at block %d", i)
		}
	}
}

// TestMapLatticeJoins pins the two map lattices: MayMap joins every
// key (an absent key joins as the missing value) and drops entries
// equal to it; MustMap keeps only keys both sides hold and meet keeps.
func TestMapLatticeJoins(t *testing.T) {
	type env map[string]int
	may := MayMap[env](1, func(a, b int) int { return a * b })
	got := may.Join(env{"a": 2, "b": 3}, env{"b": 5, "c": 1})
	if want := (env{"a": 2, "b": 15}); !may.Equal(got, want) {
		t.Fatalf("MayMap join = %v, want %v (c joins to the missing value and is dropped)", got, want)
	}
	must := MustMap[env](func(a, b int) (int, bool) { return min(a, b), a != 7 })
	got = must.Join(env{"a": 2, "b": 3, "c": 7}, env{"a": 4, "c": 7, "d": 1})
	if want := (env{"a": 2}); !must.Equal(got, want) {
		t.Fatalf("MustMap join = %v, want %v", got, want)
	}
	if len(may.Init()) != 0 || len(must.Init()) != 0 {
		t.Fatal("map lattices start from the empty map")
	}
}

// TestReplayEmitsReachedBlocksOnce: Replay's emit pass visits every
// reached block exactly once, from its converged IN, and never an
// unreachable block.
func TestReplayEmitsReachedBlocksOnce(t *testing.T) {
	_, body := parseBody(t, strings.Join([]string{
		"var x, y int",
		"for i := 0; i < 3; i++ {",
		"\tx = 1",
		"}",
		"return y",
		"y = 9", // dead
	}, "\n"))
	g := New(body)
	lat := mayLat()
	solved := Solve(g, lat, assignTransfer)
	emitted := map[int]int{}
	sol := Replay(g, lat, func(b *Block, in assignedSet, emit bool) assignedSet {
		if emit {
			emitted[b.Index]++
			if !setsEqual(in, solved.In[b.Index]) {
				t.Errorf("block %d replayed from a fact other than its converged IN", b.Index)
			}
		}
		return assignTransfer(b, in)
	})
	for _, b := range g.Blocks {
		want := 0
		if sol.Reached[b.Index] {
			want = 1
		}
		if emitted[b.Index] != want {
			t.Errorf("block %d emitted %d times, want %d", b.Index, emitted[b.Index], want)
		}
	}
	if facts := exitFacts(g, lat, sol); !facts["x"] || facts["y"] {
		t.Fatalf("Replay's solution differs from Solve's: %v", facts)
	}
}
