package flow

import (
	"go/ast"
	"maps"
)

// Lattice describes the fact domain of a forward dataflow analysis.
// Facts flow from a block's IN (join of predecessor OUTs) through the
// block's transfer function to its OUT.
type Lattice[F any] struct {
	// Init is the fact at function entry.
	Init func() F
	// Join combines two incoming facts at a merge point. Union for
	// may-analyses (taint, may-hold), intersection for must-analyses
	// (must-hold locksets). Join must not mutate its arguments.
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
}

// Solution holds the per-block facts of a solved analysis, indexed by
// Block.Index.
type Solution[F any] struct {
	In, Out []F
	// Reached marks blocks with at least one executed path from entry;
	// unreachable blocks keep zero-value facts and analyses should not
	// report from them.
	Reached []bool
}

// Solve runs a forward worklist iteration to fixpoint. The transfer
// function maps a block's IN fact to its OUT fact and must not mutate
// the IN value it is handed. Iteration order is block-index order, so
// the result (and therefore every diagnostic derived from it) is
// deterministic.
func Solve[F any](g *Graph, lat Lattice[F], transfer func(b *Block, in F) F) *Solution[F] {
	n := len(g.Blocks)
	sol := &Solution[F]{In: make([]F, n), Out: make([]F, n), Reached: make([]bool, n)}
	preds := make([][]*Block, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}

	// Entry's IN is pinned to Init; it is NOT pre-marked Reached — the
	// first pop below must record its OUT and enqueue its successors
	// even when that OUT equals the zero-value fact under Equal.
	inWork := make([]bool, n)
	work := []int{g.Entry.Index}
	inWork[g.Entry.Index] = true
	sol.In[g.Entry.Index] = lat.Init()

	for len(work) > 0 {
		// Pop the lowest index: deterministic and roughly topological
		// (blocks are numbered in source order).
		min := 0
		for i := range work {
			if work[i] < work[min] {
				min = i
			}
		}
		idx := work[min]
		work = append(work[:min], work[min+1:]...)
		inWork[idx] = false
		b := g.Blocks[idx]

		// IN = join over reached predecessors (entry keeps Init).
		if b != g.Entry {
			first := true
			var in F
			for _, p := range preds[idx] {
				if !sol.Reached[p.Index] {
					continue
				}
				if first {
					in, first = sol.Out[p.Index], false
				} else {
					in = lat.Join(in, sol.Out[p.Index])
				}
			}
			if first {
				continue // no reached predecessor yet
			}
			sol.In[idx] = in
		}

		out := transfer(b, sol.In[idx])
		if sol.Reached[idx] && lat.Equal(out, sol.Out[idx]) {
			continue
		}
		sol.Out[idx] = out
		sol.Reached[idx] = true
		for _, s := range b.Succs {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s.Index)
			}
		}
	}
	return sol
}

// MayMap is the lattice of map facts for may-analyses: joins go key by
// key through join, a key absent on one side joins as missing (the
// value every absent key stands for), and entries equal to missing are
// dropped so that one fact has one representation under Equal.
func MayMap[M ~map[K]V, K, V comparable](missing V, join func(a, b V) V) Lattice[M] {
	return Lattice[M]{
		Init: func() M { return M{} },
		Join: func(a, b M) M {
			out := make(M, len(a))
			for k, v := range a {
				w, ok := b[k]
				if !ok {
					w = missing
				}
				out[k] = join(v, w)
			}
			for k, w := range b {
				if _, ok := a[k]; !ok {
					out[k] = join(missing, w)
				}
			}
			maps.DeleteFunc(out, func(_ K, v V) bool { return v == missing })
			return out
		},
		Equal: maps.Equal[M, M],
	}
}

// MustMap is the lattice of map facts for must-analyses: a key survives
// a join only when both sides hold it and meet, given both values,
// keeps it.
func MustMap[M ~map[K]V, K, V comparable](meet func(a, b V) (V, bool)) Lattice[M] {
	return Lattice[M]{
		Init: func() M { return M{} },
		Join: func(a, b M) M {
			out := M{}
			for k, v := range a {
				if w, ok := b[k]; ok {
					if m, keep := meet(v, w); keep {
						out[k] = m
					}
				}
			}
			return out
		},
		Equal: maps.Equal[M, M],
	}
}

// Replay solves g with step and then runs step once more over every
// reached block, from its converged IN, with emit set. A check that
// reports only when emit is set therefore reports from exactly the
// transfer function its fixpoint was computed with. step must not
// mutate the IN it is handed.
func Replay[F any](g *Graph, lat Lattice[F], step func(b *Block, in F, emit bool) F) *Solution[F] {
	sol := Solve(g, lat, func(b *Block, in F) F { return step(b, in, false) })
	for _, b := range g.Blocks {
		if sol.Reached[b.Index] {
			step(b, sol.In[b.Index], true)
		}
	}
	return sol
}

// NodeStep lifts a per-node transfer over map facts to the block step
// Replay takes: the block's IN is cloned and fn applied to each of its
// nodes in order, updating the clone in place.
func NodeStep[M ~map[K]V, K comparable, V any](fn func(n ast.Node, env M, emit bool)) func(*Block, M, bool) M {
	return func(b *Block, in M, emit bool) M {
		env := maps.Clone(in)
		for _, n := range b.Nodes {
			fn(n, env, emit)
		}
		return env
	}
}
