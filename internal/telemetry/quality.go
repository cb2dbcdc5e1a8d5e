package telemetry

import (
	"sort"

	"seer/internal/stats"
)

// QualitySnapshot is one point of the inference-quality trajectory:
// Seer's learned locking scheme scored against the ground-truth conflict
// matrix accumulated so far (cumulative, not per-interval — the learner
// itself is cumulative). It is cut at the same boundary as the timeline's
// Snapshot of the same index.
type QualitySnapshot struct {
	Index    int    `json:"index"`
	EndCycle uint64 `json:"end_cycle"`
	// TruePairs counts distinct unordered block pairs with at least one
	// ground-truth conflict; PredictedPairs counts pairs covered by the
	// learned scheme (block x acquiring lock y predicts the pair {x,y}).
	TruePairs      int `json:"true_pairs"`
	PredictedPairs int `json:"predicted_pairs"`
	// TP counts predicted pairs that are true.
	TP        int     `json:"tp"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	// RankDivergence is a normalized Spearman footrule distance between
	// the truth ranking and the learned-abort-weight ranking of conflict
	// pairs (0 = identical order, 1 = reversed).
	RankDivergence float64 `json:"rank_divergence"`
	// Attributed is the cumulative count of aborts carrying ground-truth
	// attribution at snapshot time.
	Attributed uint64 `json:"attributed"`
}

// pairKey canonicalizes an unordered block pair (x ≤ y).
func pairKey(x, y, n int) int {
	if x > y {
		x, y = y, x
	}
	return x*n + y
}

// cutQuality scores the current learned scheme against the truth
// accumulated so far and appends a snapshot ending at end. It runs only
// with the scorer on, so it may allocate.
func (r *Recorder) cutQuality(end uint64) {
	a := r.attr
	scheme := r.opt.Learned(r.learned)
	n := a.nBlocks

	truth := map[int]uint64{}
	for v := 0; v < n; v++ {
		for ab := 0; ab < n; ab++ {
			if w := a.truth[v*n+ab]; w > 0 {
				truth[pairKey(v, ab, n)] += w
			}
		}
	}

	// In the paper's scheme, lock ids coincide with block ids: block x
	// acquiring lock y predicts that x conflicts with y.
	predicted := map[int]bool{}
	for x, row := range scheme {
		for _, y := range row {
			if y >= 0 && y < n {
				predicted[pairKey(x, y, n)] = true
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
		Index:          len(r.quality),
		EndCycle:       end,
		TruePairs:      len(truth),
		PredictedPairs: len(predicted),
		TP:             tp,
		Attributed:     a.attributed,
	}
	if len(predicted) > 0 {
		snap.Precision = float64(tp) / float64(len(predicted))
	}
	if len(truth) > 0 {
		snap.Recall = float64(tp) / float64(len(truth))
	}
	snap.RankDivergence = rankDivergence(truth, r.learned, n)
	r.quality = append(r.quality, snap)
}

// rankDivergence compares how the ground truth and the learner order the
// conflict pairs by weight: the Spearman footrule distance between the
// two rankings over the union of pairs either side considers conflicting,
// normalized by the maximum footrule ⌊m²/2⌋ (so 0 means the learner has
// internalized the relative importance of conflicts perfectly, even if
// its absolute counts are off).
func rankDivergence(truth map[int]uint64, learned *stats.Matrices, n int) float64 {
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
