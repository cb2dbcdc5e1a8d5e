package adversary

import (
	"testing"

	"seer"
	"seer/internal/stamp"
)

// runGraph builds a system, runs workload w under pol, validates, and
// returns the system for post-run inspection.
func runGraph(t testing.TB, w *Workload, pol seer.PolicyKind, threads int, seed int64, attribution bool) *seer.System {
	t.Helper()
	cfg := stamp.Config(w, threads, seer.Topology{})
	cfg.Seed = seed
	cfg.Policy = pol
	cfg.AttributionCounters = attribution
	sys, _, err := stamp.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestGraphShapes pins the edge counts and well-formedness of every
// constructor.
func TestGraphShapes(t *testing.T) {
	cases := []struct {
		g      Graph
		blocks int
		edges  int
		phases int
	}{
		{Ring(8), 8, 8, 1},
		{Star(8), 8, 7, 1},
		{Bipartite(2, 6), 8, 12, 1},
		{Clique(6), 6, 15, 1},
		{PhaseShift(8), 8, 8, 2},
	}
	for _, c := range cases {
		if err := c.g.wellFormed(); err != nil {
			t.Errorf("%s: %v", c.g.Name, err)
		}
		if c.g.Blocks != c.blocks {
			t.Errorf("%s: %d blocks, want %d", c.g.Name, c.g.Blocks, c.blocks)
		}
		if c.g.Edges() != c.edges {
			t.Errorf("%s: %d edges, want %d", c.g.Name, c.g.Edges(), c.edges)
		}
		if len(c.g.Phases) != c.phases {
			t.Errorf("%s: %d phases, want %d", c.g.Name, len(c.g.Phases), c.phases)
		}
	}
}

// TestPhaseShiftDisjoint: the phase flip must invalidate every learned
// edge — no conflict pair survives the midpoint.
func TestPhaseShiftDisjoint(t *testing.T) {
	g := PhaseShift(8)
	in0 := map[Edge]bool{}
	for _, e := range g.Phases[0] {
		in0[e] = true
	}
	for _, e := range g.Phases[1] {
		if in0[e] {
			t.Fatalf("edge %v present in both phases", e)
		}
	}
}

// TestNormalize folds hostile descriptions into canonical form.
func TestNormalize(t *testing.T) {
	g := Graph{
		Name:   "hostile",
		Blocks: 1000,
		Phases: [][]Edge{{
			{A: -3, B: 5}, {A: 5, B: -3}, // duplicate after folding
			{A: 7, B: 7},   // self edge
			{A: 9, B: 2},   // reversed
			{A: 131, B: 4}, // out of range
		}},
	}.Normalize()
	if err := g.wellFormed(); err != nil {
		t.Fatal(err)
	}
	if g.Blocks != maxBlocks {
		t.Fatalf("blocks %d, want clamp to %d", g.Blocks, maxBlocks)
	}
	if got := (Graph{}).Normalize(); got.Blocks != 2 || len(got.Phases) != 1 {
		t.Fatalf("empty graph normalized to %+v", got)
	}
}

// TestAdversaryAllGraphsRTM runs every constructor under RTM and checks
// the workload invariants end to end.
func TestAdversaryAllGraphsRTM(t *testing.T) {
	for _, g := range []Graph{Ring(8), Star(8), Bipartite(2, 6), Clique(6), PhaseShift(8)} {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			runGraph(t, New(g, 800), seer.PolicyRTM, 4, 7, false)
		})
	}
}

// TestRealizedConflictsMatchDeclared: under attribution, every realized
// ground-truth conflict pair of a clique run must be a declared pair
// (self pairs and edges), and a contended run must realize at least one
// cross-block conflict.
func TestRealizedConflictsMatchDeclared(t *testing.T) {
	g := Clique(6)
	w := New(g, 1600)
	w.TxWork = 200 // widen the conflict windows
	sys := runGraph(t, w, seer.PolicyRTM, 8, 11, true)
	truth := sys.Recorder().TruthMatrix()
	declared := g.Pairs()
	n := g.Blocks
	cross := uint64(0)
	for v := 0; v < n; v++ {
		for a := 0; a < n; a++ {
			c := truth[v*n+a]
			if c > 0 && !declared[v*n+a] {
				t.Errorf("undeclared conflict pair (%d<-%d) realized %d times", v, a, c)
			}
			if v != a {
				cross += c
			}
		}
	}
	if cross == 0 {
		t.Fatalf("clique run realized no cross-block conflicts")
	}
}

// FuzzAdversaryGraph: arbitrary shape parameters must normalize to a
// well-formed graph whose workload runs and validates under every
// multi-thread policy, and — via the attribution ground truth — realizes
// only declared conflict pairs under each.
func FuzzAdversaryGraph(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), []byte{0, 1, 1, 2, 2, 3})
	f.Add(int64(2), uint8(3), uint8(2), []byte{0xFF, 0x01, 0x80, 0x7F})
	f.Add(int64(3), uint8(0), uint8(0), []byte{})
	policies := []seer.PolicyKind{
		seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicyBackoff,
		seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer, seer.PolicyPhased,
	}
	f.Fuzz(func(t *testing.T, seed int64, blocks, phases uint8, edgeData []byte) {
		nPhases := 1 + int(phases%2)
		raw := Graph{Name: "fuzz", Blocks: int(int8(blocks)), Phases: make([][]Edge, nPhases)}
		if len(edgeData) > 64 {
			edgeData = edgeData[:64]
		}
		for i := 0; i+1 < len(edgeData); i += 2 {
			e := Edge{A: int(int8(edgeData[i])), B: int(int8(edgeData[i+1]))}
			p := (i / 2) % nPhases
			raw.Phases[p] = append(raw.Phases[p], e)
		}
		g := raw.Normalize()
		if err := g.wellFormed(); err != nil {
			t.Fatalf("normalized graph not well-formed: %v", err)
		}
		declared := g.Pairs()
		n := g.Blocks
		for _, pol := range policies {
			sys := runGraph(t, New(g, 200), pol, 4, seed, true)
			truth := sys.Recorder().TruthMatrix()
			for v := 0; v < n; v++ {
				for a := 0; a < n; a++ {
					if truth[v*n+a] > 0 && !declared[v*n+a] {
						t.Fatalf("%s: undeclared conflict pair (%d<-%d) realized", pol, v, a)
					}
				}
			}
		}
	})
}
