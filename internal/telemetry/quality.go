package telemetry

import (
	"slices"
	"sort"

	"seer/internal/stats"
)

// QualitySnapshot is one point of the inference-quality trajectory:
// Seer's learned locking scheme scored against the ground-truth conflict
// matrix accumulated so far in the Run (cumulative, not per-interval — the
// learner itself is cumulative). It is cut at the same boundary as the
// timeline's Snapshot of the same index.
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
	// Attributed is the Run's count of aborts carrying ground-truth
	// attribution at snapshot time.
	Attributed uint64 `json:"attributed"`
}

// pairState is the scorer's dense state for one unordered conflict pair,
// indexed by its canonical key x*n+y (x ≤ y): its ground-truth and learned
// abort weights at the last cut (w[0] and w[1]), its rank in the truth
// ordering, whether this cut's scheme predicts it, and whether it is in
// the kept rankings (either weight non-zero at the last cut).
type pairState struct {
	w        [2]uint64
	rankT    int32
	pred, in bool
}

// scorer is the inference-quality sink: the learner's statistics sampled
// at every cut, the Run's trajectory scored so far, the n×n pair state,
// and the two rankings kept from the previous cut (ordT by truth weight,
// ordL by learned weight), which the next cut re-sorts by insertion. There
// are no maps and no pointers, and a cut allocates nothing once the
// trajectory has its capacity.
type scorer struct {
	learned    *stats.Matrices
	quality    []QualitySnapshot
	keys       []pairState
	ordT, ordL []int32
}

// cutQuality scores the current learned scheme against the truth
// accumulated so far in the Run and appends a snapshot ending at end.
func (r *Recorder) cutQuality(end uint64) {
	sc, a := &r.scorer, r.attr
	scheme := r.opt.Learned(sc.learned)
	n, keys := a.nBlocks, sc.keys

	// In the paper's scheme, lock ids coincide with block ids: block x
	// acquiring lock y predicts that x conflicts with y.
	predicted := 0
	for x, row := range scheme {
		for _, y := range row {
			if k := min(x, y)*n + max(x, y); y >= 0 && y < n && !keys[k].pred {
				keys[k].pred = true
				predicted++
			}
		}
	}

	// One pass over the unordered pairs: fold both directions of the truth
	// and learned matrices, count the confusion entries (clearing pred for
	// the next cut), and keep the rankings over the union of pairs either
	// side considers conflicting: a pair joins both at the end when it
	// first gains weight, and leaves when both its weights are 0 again.
	truePairs, tp := 0, 0
	for x := 0; x < n; x++ {
		for y := x; y < n; y++ {
			k, p := x*n+y, &keys[x*n+y]
			tw, lw := a.truth[k], sc.learned.Aborts(x, y)
			if y != x {
				tw += a.truth[y*n+x]
				lw += sc.learned.Aborts(y, x)
			}
			if tw > 0 {
				truePairs++
				if p.pred {
					tp++
				}
			}
			if !p.in && (tw > 0 || lw > 0) {
				sc.ordT = append(sc.ordT, int32(k))
				sc.ordL = append(sc.ordL, int32(k))
			}
			p.w, p.pred, p.in = [2]uint64{tw, lw}, false, tw > 0 || lw > 0
		}
	}

	snap := QualitySnapshot{
		Index:          len(sc.quality),
		EndCycle:       end,
		TruePairs:      truePairs,
		PredictedPairs: predicted,
		TP:             tp,
		RankDivergence: sc.rankDivergence(),
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
// its absolute counts are off). It first brings both kept rankings up to
// date with this cut's weights.
func (sc *scorer) rankDivergence() float64 {
	sc.ordT = rerank(sc.ordT, sc.keys, 0)
	sc.ordL = rerank(sc.ordL, sc.keys, 1)
	m := len(sc.ordT)
	if m < 2 {
		return 0
	}
	for i, k := range sc.ordT {
		sc.keys[k].rankT = int32(i)
	}
	dist := 0
	for i, k := range sc.ordL {
		dist += max(int(sc.keys[k].rankT)-i, i-int(sc.keys[k].rankT))
	}
	return float64(dist) / float64(m*m/2)
}

// rerank re-sorts ord, a ranking kept from the previous cut, under
// (weight w[side] descending, key ascending). Keys are distinct, so that
// order is total and the result is the one sorted permutation whatever
// order ord arrives in. It drops the keys that left the union and
// insertion-sorts the rest in place: a key not before its predecessor
// stays put, any other finds its place by binary search and shifts the
// gap with one copy. Cumulative weights barely reorder between cuts, so
// re-sorting costs O(m); a full reshuffle costs O(m log m) comparisons and
// at most m²/2 moved words (m ≤ 528 at 32 blocks).
func rerank(ord []int32, keys []pairState, side int) []int32 {
	before := func(a, b int32) bool {
		wa, wb := keys[a].w[side], keys[b].w[side]
		return wa > wb || wa == wb && a < b
	}
	ord = slices.DeleteFunc(ord, func(k int32) bool { return !keys[k].in })
	for j, k := range ord {
		if j > 0 && before(k, ord[j-1]) {
			at := sort.Search(j-1, func(i int) bool { return before(k, ord[i]) })
			copy(ord[at+1:], ord[at:j])
			ord[at] = k
		}
	}
	return ord
}
