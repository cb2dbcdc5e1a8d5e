package telemetry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"seer/internal/stats"
)

// oraclePairKey, oracleCutQuality and oracleRankDivergence are the
// map-based scorer the dense one replaced, kept verbatim (only the
// Recorder plumbing became parameters) as the differential oracle.
func oraclePairKey(x, y, n int) int {
	if x > y {
		x, y = y, x
	}
	return x*n + y
}

func oracleCutQuality(truthMatrix []uint64, learned *stats.Matrices, scheme [][]int, n, index int, end, attributed uint64) QualitySnapshot {
	truth := map[int]uint64{}
	for v := 0; v < n; v++ {
		for ab := 0; ab < n; ab++ {
			if w := truthMatrix[v*n+ab]; w > 0 {
				truth[oraclePairKey(v, ab, n)] += w
			}
		}
	}

	// In the paper's scheme, lock ids coincide with block ids: block x
	// acquiring lock y predicts that x conflicts with y.
	predicted := map[int]bool{}
	for x, row := range scheme {
		for _, y := range row {
			if y >= 0 && y < n {
				predicted[oraclePairKey(x, y, n)] = true
			}
		}
	}

	tp := 0
	for k := range predicted {
		if truth[k] > 0 {
			tp++
		}
	}
	snap := QualitySnapshot{
		Index:          index,
		EndCycle:       end,
		TruePairs:      len(truth),
		PredictedPairs: len(predicted),
		TP:             tp,
		Attributed:     attributed,
	}
	if len(predicted) > 0 {
		snap.Precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		snap.Recall = float64(tp) / float64(len(truth))
	}
	snap.RankDivergence = oracleRankDivergence(truth, learned, n)
	return snap
}

func oracleRankDivergence(truth map[int]uint64, learned *stats.Matrices, n int) float64 {
	type pw struct {
		key    int
		tw, lw uint64
	}
	byKey := map[int]*pw{}
	for k, w := range truth {
		byKey[k] = &pw{key: k, tw: w}
	}
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			w := learned.Aborts(x, y)
			if y != x {
				w += learned.Aborts(y, x)
			}
			if w == 0 {
				continue
			}
			k := x*n + y
			if p, ok := byKey[k]; ok {
				p.lw = w
			} else {
				byKey[k] = &pw{key: k, lw: w}
			}
		}
	}
	m := len(byKey)
	if m < 2 {
		return 0
	}
	pairs := make([]*pw, 0, m)
	for _, p := range byKey {
		pairs = append(pairs, p)
	}
	// Rank by truth weight, then by learned weight; ties broken by key so
	// both rankings are total orders and the distance is deterministic.
	rankT := make(map[int]int, m)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].tw != pairs[j].tw {
			return pairs[i].tw > pairs[j].tw
		}
		return pairs[i].key < pairs[j].key
	})
	for i, p := range pairs {
		rankT[p.key] = i
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lw != pairs[j].lw {
			return pairs[i].lw > pairs[j].lw
		}
		return pairs[i].key < pairs[j].key
	})
	dist := 0
	for i, p := range pairs {
		d := rankT[p.key] - i
		if d < 0 {
			d = -d
		}
		dist += d
	}
	maxDist := m * m / 2
	return float64(dist) / float64(maxDist)
}

// scorerCase is one (truth, learned, scheme) triple over n blocks.
type scorerCase struct {
	truth   []uint64 // n×n, victim-major
	learned *stats.Matrices
	scheme  [][]int
}

// randomWeights fills an n×n matrix: each entry is non-zero with
// probability density, drawn from 1..maxW (small maxW = heavy ties).
func randomWeights(rng *rand.Rand, n int, density float64, maxW int) []uint64 {
	w := make([]uint64, n*n)
	for i := range w {
		if rng.Float64() < density {
			w[i] = uint64(1 + rng.Intn(maxW))
		}
	}
	return w
}

func learnedFrom(n int, aborts []uint64) *stats.Matrices {
	m := stats.NewMatrices(n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for c := aborts[x*n+y]; c > 0; c-- {
				m.AddAbort(x, y)
			}
		}
	}
	return m
}

// randomCase draws a triple; scheme rows carry ids from -2..n+1, so some
// are out of range and must be ignored, and repeats within a row.
func randomCase(rng *rand.Rand, n int) scorerCase {
	densities := []float64{0, 0.05, 0.3, 1}
	maxWs := []int{1, 3, 50}
	c := scorerCase{
		truth:   randomWeights(rng, n, densities[rng.Intn(4)], maxWs[rng.Intn(3)]),
		learned: learnedFrom(n, randomWeights(rng, n, densities[rng.Intn(4)], maxWs[rng.Intn(3)])),
		scheme:  make([][]int, n),
	}
	for x := range c.scheme {
		for k := rng.Intn(4); k > 0; k-- {
			c.scheme[x] = append(c.scheme[x], rng.Intn(n+4)-2)
		}
	}
	return c
}

// scorerUnderTest is a recorder whose truth and learner the test sets
// before each cut; one is reused across cases, so stale scratch from the
// previous cut would show.
type scorerUnderTest struct {
	rec *Recorder
	cur scorerCase
}

func newScorerUnderTest(n int, buf *Buffers) *scorerUnderTest {
	s := &scorerUnderTest{}
	s.rec = NewRecycled(Options{Threads: 1, Blocks: n, Attribution: true,
		Learned: func(dst *stats.Matrices) [][]int {
			dst.Reset()
			dst.MergeFrom(s.cur.learned)
			return s.cur.scheme
		}}, buf)
	return s
}

func (s *scorerUnderTest) cut(c scorerCase, end, attributed uint64) QualitySnapshot {
	s.cur = c
	copy(s.rec.attr.truth, c.truth)
	s.rec.attr.attributed = attributed
	s.rec.cutQuality(end)
	return s.rec.scorer.quality[len(s.rec.scorer.quality)-1]
}

// hotEntries lists the entries v*n+ab of an n×n matrix with v+ab of the
// given parity, so the two parities touch disjoint sets of pairs. Entry 0
// (the pair {0,0}) is left out: runCuts gives it its own weight.
func hotEntries(n, parity int) (hot []int) {
	for e := 1; e < n*n; e++ {
		if (e/n+e%n)%2 == parity {
			hot = append(hot, e)
		}
	}
	return hot
}

// runCuts draws count cuts that grow like a Run's: every cut adds a few
// small increments to truth and learned entries drawn from hot, so
// consecutive cuts rank the pairs almost alike. The learned weight of the
// pair {0,0} rises over the first half and is 0 from the middle cut on,
// so that pair leaves the ranked union.
func runCuts(rng *rand.Rand, n, count int, hot []int) []scorerCase {
	truth, aborts := make([]uint64, n*n), make([]uint64, n*n)
	cuts := make([]scorerCase, count)
	for i := range cuts {
		for j := rng.Intn(6); j > 0; j-- {
			truth[hot[rng.Intn(len(hot))]] += uint64(1 + rng.Intn(3))
			aborts[hot[rng.Intn(len(hot))]] += uint64(1 + rng.Intn(3))
		}
		aborts[0]++
		if i >= count/2 {
			aborts[0] = 0
		}
		scheme := make([][]int, n)
		for x := range scheme {
			scheme[x] = []int{rng.Intn(n)}
		}
		cuts[i] = scorerCase{slices.Clone(truth), learnedFrom(n, aborts), scheme}
	}
	return cuts
}

// checkRun cuts s through cuts, calling BeginRun before the cut at a
// third of the way, and compares every cut with the map oracle.
func checkRun(t *testing.T, s *scorerUnderTest, n int, cuts []scorerCase, label string) {
	t.Helper()
	index := 0
	for i, c := range cuts {
		if i == len(cuts)/3 {
			s.rec.BeginRun()
			index = 0
		}
		want := oracleCutQuality(c.truth, c.learned, c.scheme, n, index, uint64(i), 0)
		if got := s.cut(c, uint64(i), 0); got != want {
			t.Fatalf("%s n=%d cut %d:\n dense  %+v\n oracle %+v", label, n, i, got, want)
		}
		index++
	}
}

// TestCutQualityMatchesMapOracle checks the dense scorer against the
// map-based one it replaced on hand-picked edge cases and 1200 random
// triples, at every block count the workloads use from 1 to the maximum.
// Each random triple reshuffles the rankings the scorer keeps between
// cuts. Then Run-like cumulative sequences check what the kept rankings
// must follow: a BeginRun midway, a pair falling back to weight 0, and
// recycled scorers after a cell of the same n on disjoint pairs, after
// one on the same pairs, and after a wider cell, whose keys lie outside
// the narrower key space.
func TestCutQualityMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 6, 32} {
		zero := make([]uint64, n*n)
		single := make([]uint64, n*n)
		single[n*n-1] = 7 // one self pair: m < 2
		tied := randomWeights(rng, n, 1, 1)
		outOfRange := make([][]int, n)
		for x := range outOfRange {
			outOfRange[x] = []int{-1, n, n + 5, x, x}
		}
		cases := []scorerCase{
			{zero, learnedFrom(n, zero), make([][]int, n)},
			{single, learnedFrom(n, zero), make([][]int, n)},
			{zero, learnedFrom(n, single), outOfRange},
			{tied, learnedFrom(n, tied), outOfRange},
		}
		for len(cases) < 300 {
			cases = append(cases, randomCase(rng, n))
		}
		s := newScorerUnderTest(n, nil)
		for i, c := range cases {
			end, attributed := uint64(1000+i), uint64(i*3)
			want := oracleCutQuality(c.truth, c.learned, c.scheme, n, i, end, attributed)
			if got := s.cut(c, end, attributed); got != want {
				t.Fatalf("n=%d case %d:\n dense  %+v\n oracle %+v\n truth %v\n scheme %v", n, i, got, want, c.truth, c.scheme)
			}
		}
	}

	var buf Buffers
	for _, n := range []int{32, 6, 2} {
		for cell, parity := range []int{0, 1, 1} {
			s := newScorerUnderTest(n, &buf)
			checkRun(t, s, n, runCuts(rng, n, 200, hotEntries(n, parity)), fmt.Sprintf("cell %d (parity %d)", cell, parity))
			s.rec.Release(&buf)
		}
	}
}

// insertionMoves is the work that re-sorting rankings kept between cuts
// by insertion does on cuts, whatever the scorer: per cut and ranking, the
// keys arrive in the previous order (then the new keys in key order), and
// each moves past the placed keys that rank after it. It returns the moves
// per cut, both rankings together.
func insertionMoves(n int, cuts []scorerCase) float64 {
	var ord [2][]int
	moves := 0
	for _, c := range cuts {
		var w [2][]uint64
		w[0], w[1] = make([]uint64, n*n), make([]uint64, n*n)
		for v := 0; v < n; v++ {
			for ab := 0; ab < n; ab++ {
				k := oraclePairKey(v, ab, n)
				w[0][k] += c.truth[v*n+ab]
				w[1][k] += c.learned.Aborts(v, ab)
			}
		}
		for side, prev := range ord {
			kept := make([]bool, n*n)
			var next []int
			for _, k := range prev {
				if kept[k] = w[0][k]+w[1][k] > 0; kept[k] {
					next = append(next, k)
				}
			}
			for k := range kept {
				if !kept[k] && w[0][k]+w[1][k] > 0 {
					next = append(next, k)
				}
			}
			rank := func(a, b int) int {
				return cmp.Or(cmp.Compare(w[side][b], w[side][a]), cmp.Compare(a, b))
			}
			var placed []int
			for _, k := range next {
				at, _ := slices.BinarySearchFunc(placed, k, rank)
				moves += len(placed) - at
				placed = slices.Insert(placed, at, k)
			}
			ord[side] = placed
		}
	}
	return float64(moves) / float64(len(cuts))
}

// BenchmarkCutQuality times one cut at 32 blocks, the workloads' maximum,
// over a 200-cut sequence (a BeginRun at each wrap) in two shapes:
// cumulative weights that grow by small increments, as infer-obs's do, so
// consecutive cuts rank the pairs almost alike; and reshuffled, every pair
// weighted afresh at every cut, the worst case for rankings kept between
// cuts. moves/cut is insertionMoves of the sequence.
func BenchmarkCutQuality(b *testing.B) {
	const n, count = 32, 200
	rng := rand.New(rand.NewSource(1))
	reshuffled := make([]scorerCase, count)
	for i := range reshuffled {
		reshuffled[i] = scorerCase{randomWeights(rng, n, 1, 50), learnedFrom(n, randomWeights(rng, n, 1, 50)), make([][]int, n)}
	}
	for _, shape := range []struct {
		name string
		cuts []scorerCase
	}{
		{"cumulative", runCuts(rng, n, count, hotEntries(n, 0))},
		{"reshuffled", reshuffled},
	} {
		b.Run(shape.name, func(b *testing.B) {
			moves := insertionMoves(n, shape.cuts)
			s := newScorerUnderTest(n, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%count == 0 {
					s.rec.BeginRun()
				}
				s.cut(shape.cuts[i%count], uint64(i), 0)
			}
			b.ReportMetric(moves, "moves/cut")
		})
	}
}

// TestCutQualityZeroAllocs pins the scorer's steady state: on recycled
// storage (so the trajectory already has its capacity) the second and
// later cuts of a dense 32-block matrix allocate nothing.
func TestCutQualityZeroAllocs(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(5))
	c := scorerCase{
		truth:   randomWeights(rng, n, 1, 50),
		learned: learnedFrom(n, randomWeights(rng, n, 1, 50)),
		scheme:  make([][]int, n),
	}
	for x := range c.scheme {
		c.scheme[x] = []int{(x + 1) % n, (x + 7) % n}
	}
	var buf Buffers
	warm := newScorerUnderTest(n, &buf)
	for i := 0; i < 256; i++ {
		warm.cut(c, uint64(i), 0)
	}
	warm.rec.Release(&buf)

	s := newScorerUnderTest(n, &buf)
	first := s.cut(c, 1, 0)
	if first.Index != 0 || first.TruePairs != n*(n+1)/2 {
		t.Fatalf("recycled scorer did not start clean: %+v", first)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.cut(c, 2, 0) }); allocs != 0 {
		t.Fatalf("cutQuality allocates %.1f objects per cut in steady state, want 0", allocs)
	}
}
