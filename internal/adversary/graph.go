// Package adversary synthesizes worst-case conflict graphs for stressing
// contention managers: rings, stars, bipartite hot-spots, cliques, and
// phase-shifting mixes that flip the conflict graph mid-run to defeat
// learned schemes. Each graph instantiates as a stamp.Workload whose
// realized conflict structure (observable through the attribution ground
// truth) matches the declared edges exactly: atomic block b writes one
// shared per-block line (so every block self-conflicts) plus one shared
// line per incident edge of the current phase (so exactly the declared
// pairs cross-conflict).
//
// These are the adversarial instances of the transactional conflict
// problem: the ring is the sparse cycle where pairwise serialization
// chains, the star is the single hot object, the bipartite hot-spot
// models few writers against many readers, the clique is the dense
// worst case, and the phase shift invalidates any learned locking
// scheme halfway through the run.
package adversary

import "fmt"

// Edge is one undirected conflict between two atomic blocks.
type Edge struct{ A, B int }

// Graph declares a conflict structure over atomic blocks. Phases holds
// one edge set per phase; a run divides each worker's operation sequence
// evenly across phases, switching edge sets at the boundaries. A
// single-phase graph has a static conflict structure.
type Graph struct {
	Name   string
	Blocks int
	Phases [][]Edge
}

// Ring returns the n-cycle: block i conflicts with block (i+1) mod n.
func Ring(n int) Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{A: i, B: (i + 1) % n})
	}
	return normalized(Graph{Name: "ring", Blocks: n, Phases: [][]Edge{edges}})
}

// Star returns the n-block star: block 0 is the hub conflicting with
// every other block; the spokes do not conflict with each other.
func Star(n int) Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{A: 0, B: i})
	}
	return normalized(Graph{Name: "star", Blocks: n, Phases: [][]Edge{edges}})
}

// Bipartite returns the complete bipartite hot-spot K(l,r): the first l
// blocks (hot writers) each conflict with all of the last r blocks.
func Bipartite(l, r int) Graph {
	edges := make([]Edge, 0, l*r)
	for i := 0; i < l; i++ {
		for j := 0; j < r; j++ {
			edges = append(edges, Edge{A: i, B: l + j})
		}
	}
	return normalized(Graph{Name: "bipartite", Blocks: l + r, Phases: [][]Edge{edges}})
}

// Clique returns the complete graph K(n): every pair of blocks conflicts.
func Clique(n int) Graph {
	edges := make([]Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{A: i, B: j})
		}
	}
	return normalized(Graph{Name: "clique", Blocks: n, Phases: [][]Edge{edges}})
}

// PhaseShift returns a two-phase graph over n blocks (n even) whose
// conflict structure flips completely at the midpoint: phase 0 is the
// perfect matching {(0,1), (2,3), ...}, phase 1 the shifted matching
// {(1,2), (3,4), ..., (n-1,0)}. No edge survives the flip, so a locking
// scheme learned in phase 0 serializes exactly the pairs that no longer
// conflict — the adversarial input for history-based schedulers.
func PhaseShift(n int) Graph {
	if n%2 != 0 {
		n++
	}
	p0 := make([]Edge, 0, n/2)
	p1 := make([]Edge, 0, n/2)
	for i := 0; i < n; i += 2 {
		p0 = append(p0, Edge{A: i, B: i + 1})
		p1 = append(p1, Edge{A: i + 1, B: (i + 2) % n})
	}
	return normalized(Graph{Name: "phase", Blocks: n, Phases: [][]Edge{p0, p1}})
}

// maxBlocks bounds normalized graphs; Seer's statistics matrices are
// quadratic in the block count, so adversarial instances stay small.
const maxBlocks = 32

// Normalize folds an arbitrary Graph description into a well-formed one:
// Blocks clamped to [2, maxBlocks], at least one phase, every edge folded
// into range with A < B, self-edges dropped, duplicates within a phase
// merged. The result is deterministic in the input. Fuzzed inputs go
// through here before instantiating a workload.
func (g Graph) Normalize() Graph { return normalized(g) }

func normalized(g Graph) Graph {
	if g.Blocks < 2 {
		g.Blocks = 2
	}
	if g.Blocks > maxBlocks {
		g.Blocks = maxBlocks
	}
	if len(g.Phases) == 0 {
		g.Phases = [][]Edge{nil}
	}
	out := make([][]Edge, len(g.Phases))
	for p, edges := range g.Phases {
		seen := make(map[Edge]bool, len(edges))
		keep := make([]Edge, 0, len(edges))
		for _, e := range edges {
			a := ((e.A % g.Blocks) + g.Blocks) % g.Blocks
			b := ((e.B % g.Blocks) + g.Blocks) % g.Blocks
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			c := Edge{A: a, B: b}
			if seen[c] {
				continue
			}
			seen[c] = true
			keep = append(keep, c)
		}
		out[p] = keep
	}
	g.Phases = out
	return g
}

// wellFormed reports whether the graph satisfies the Normalize
// invariants (used by the fuzz target as the structural oracle).
func (g Graph) wellFormed() error {
	if g.Blocks < 2 || g.Blocks > maxBlocks {
		return fmt.Errorf("blocks %d outside [2, %d]", g.Blocks, maxBlocks)
	}
	if len(g.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	for p, edges := range g.Phases {
		seen := map[Edge]bool{}
		for _, e := range edges {
			if e.A < 0 || e.B >= g.Blocks || e.A >= e.B {
				return fmt.Errorf("phase %d: edge %v not canonical for %d blocks", p, e, g.Blocks)
			}
			if seen[e] {
				return fmt.Errorf("phase %d: duplicate edge %v", p, e)
			}
			seen[e] = true
		}
	}
	return nil
}

// Edges returns the total edge count across phases.
func (g Graph) Edges() int {
	n := 0
	for _, p := range g.Phases {
		n += len(p)
	}
	return n
}

// Pairs returns the declared conflict-pair set as a Blocks×Blocks
// victim-major boolean matrix: every block self-conflicts (the shared
// per-block line), and each edge of any phase conflicts both ways.
func (g Graph) Pairs() []bool {
	n := g.Blocks
	m := make([]bool, n*n)
	for b := 0; b < n; b++ {
		m[b*n+b] = true
	}
	for _, phase := range g.Phases {
		for _, e := range phase {
			m[e.A*n+e.B] = true
			m[e.B*n+e.A] = true
		}
	}
	return m
}
