package telemetry

import (
	"cmp"
	"slices"

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

// pw is one unordered conflict pair the scorer ranks: its canonical key
// x*n+y (x ≤ y), its ground-truth and learned abort weights, and its rank
// in the truth ordering (written between the two sorts).
type pw struct {
	key, rankT int32
	tw, lw     uint64
}

// scorer is the inference-quality sink: the learner's statistics sampled
// at every cut, the Run's trajectory scored so far, and dense scratch —
// pred is n×n, pairs holds at most n(n+1)/2 values — so a cut allocates
// nothing once the trajectory has its capacity. There are no maps and no
// pointers: every pass visits the pairs in ascending key order.
type scorer struct {
	learned *stats.Matrices
	quality []QualitySnapshot
	pred    []bool
	pairs   []pw
}

// cutQuality scores the current learned scheme against the truth
// accumulated so far and appends a snapshot ending at end.
func (r *Recorder) cutQuality(end uint64) {
	sc, a := &r.scorer, r.attr
	scheme := r.opt.Learned(sc.learned)
	n := a.nBlocks

	// In the paper's scheme, lock ids coincide with block ids: block x
	// acquiring lock y predicts that x conflicts with y.
	clear(sc.pred)
	predicted := 0
	for x, row := range scheme {
		for _, y := range row {
			if k := min(x, y)*n + max(x, y); y >= 0 && y < n && !sc.pred[k] {
				sc.pred[k] = true
				predicted++
			}
		}
	}

	// One pass over the unordered pairs: fold both directions of the truth
	// and learned matrices, count the confusion entries, and collect the
	// union of pairs either side considers conflicting for the ranking.
	sc.pairs = sc.pairs[:0]
	truePairs, tp := 0, 0
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			k := x*n + y
			tw, lw := a.truth[k], sc.learned.Aborts(x, y)
			if y != x {
				tw += a.truth[y*n+x]
				lw += sc.learned.Aborts(y, x)
			}
			if tw > 0 {
				truePairs++
				if sc.pred[k] {
					tp++
				}
			}
			if tw > 0 || lw > 0 {
				sc.pairs = append(sc.pairs, pw{key: int32(k), tw: tw, lw: lw})
			}
		}
	}

	snap := QualitySnapshot{
		Index:          len(sc.quality),
		EndCycle:       end,
		TruePairs:      truePairs,
		PredictedPairs: predicted,
		TP:             tp,
		RankDivergence: rankDivergence(sc.pairs),
		Attributed:     a.attributed,
	}
	if predicted > 0 {
		snap.Precision = float64(tp) / float64(predicted)
	}
	if truePairs > 0 {
		snap.Recall = float64(tp) / float64(truePairs)
	}
	sc.quality = append(sc.quality, snap)
}

// rankDivergence compares how the ground truth and the learner order the
// conflict pairs by weight: the Spearman footrule distance between the
// two rankings over the union of pairs either side considers conflicting,
// normalized by the maximum footrule ⌊m²/2⌋ (so 0 means the learner has
// internalized the relative importance of conflicts perfectly, even if
// its absolute counts are off). It reorders pairs.
func rankDivergence(pairs []pw) float64 {
	m := len(pairs)
	if m < 2 {
		return 0
	}
	// Rank by truth weight, then by learned weight; ties broken by key, so
	// both rankings are total orders over distinct keys: the result does
	// not depend on the sort algorithm or on the order pairs arrived in.
	slices.SortFunc(pairs, func(p, q pw) int {
		return cmp.Or(cmp.Compare(q.tw, p.tw), cmp.Compare(p.key, q.key))
	})
	for i := range pairs {
		pairs[i].rankT = int32(i)
	}
	slices.SortFunc(pairs, func(p, q pw) int {
		return cmp.Or(cmp.Compare(q.lw, p.lw), cmp.Compare(p.key, q.key))
	})
	dist := 0
	for i, p := range pairs {
		dist += max(int(p.rankT)-i, i-int(p.rankT))
	}
	return float64(dist) / float64(m*m/2)
}
