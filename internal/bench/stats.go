// Package bench holds the summary statistics and table rendering shared
// by the harness exhibits and the performance ledger (benchmark/): trimmed
// and geometric means, and ratio-table rendering. It sits below the
// harness in the import graph (no simulator dependencies).
package bench

import (
	"math"
	"sort"
)

// Summary statistics for repeated measurements. Every function is pure
// and treats its input as read-only, so callers can share slices.

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// GeoMean returns the geometric mean of vals, ignoring non-positive
// entries (which would otherwise poison the product). Ratios aggregate
// through here: the geomean of speedups is invariant under inverting the
// baseline.
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// TrimmedMean sorts a copy of vals, drops ⌊frac·n⌋ entries from each
// end, and returns the arithmetic mean of the rest — the outlier-robust
// aggregate for repeated timing runs. frac is clamped to [0, 0.5); with
// too few samples to trim it degrades to the plain mean.
func TrimmedMean(vals []float64, frac float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 0.5 {
		frac = 0.49
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	k := int(frac * float64(len(sorted)))
	if 2*k >= len(sorted) {
		k = (len(sorted) - 1) / 2
	}
	return Mean(sorted[k : len(sorted)-k])
}
