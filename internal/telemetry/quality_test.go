package telemetry

import (
	"math/rand"
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

// TestCutQualityMatchesMapOracle checks the dense scorer against the
// map-based one it replaced on hand-picked edge cases and 1200 random
// triples, at every block count the workloads use from 1 to the maximum.
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
