package main

import "sort"

// summary describes the repeated readings of one metric. Value is the
// median; it is what gets reported and compared.
type summary struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values,omitempty"` // in rep order
	// Ops is the operation count behind a layer driver's per-op reading.
	Ops int `json:"ops,omitempty"`
}

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones an outside checker computes. A
// single reading is its own quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

func summarize(unit string, vals []float64) summary {
	s := summary{Unit: unit, N: len(vals), Values: vals}
	if len(vals) == 0 {
		return s
	}
	s.Q1, s.Value, s.Q3 = quartiles(vals)
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals {
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
	}
	return s
}

// single wraps one reading — an exact count, or a value taken once — so
// it has no spread.
func single(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Min: v, Max: v, Q1: v, Q3: v, N: 1}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Value
	if d < 0 {
		d = -d
	}
	return d
}
