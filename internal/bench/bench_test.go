package bench

import (
	"math"
	"strings"
	"testing"
)

func TestStats(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", g)
	}
	if g := GeoMean([]float64{-1, 0}); g != 0 {
		t.Fatalf("GeoMean of non-positive = %v", g)
	}
	// 20% trim of 10 values drops the 2 extremes.
	vals := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if m := TrimmedMean(vals, 0.2); math.Abs(m-4.5) > 1e-12 {
		t.Fatalf("TrimmedMean = %v", m)
	}
	if m := TrimmedMean([]float64{7}, 0.4); m != 7 {
		t.Fatalf("TrimmedMean single = %v", m)
	}
	if m := TrimmedMean(nil, 0.2); m != 0 {
		t.Fatalf("TrimmedMean(nil) = %v", m)
	}
}

func TestRatioTableRender(t *testing.T) {
	tbl := RatioTable{
		Title:     "demo",
		RowHeader: "graph",
		Rows:      []string{"ring", "star"},
		Cols:      []string{"RTM", "Seer"},
		Cells:     [][]float64{{1, 2}, {4, math.NaN()}},
		Geomean:   true,
	}
	var b strings.Builder
	tbl.Render(&b)
	got := b.String()
	for _, want := range []string{"demo", "graph", "ring", "star", "geomean", "2.00", "-"} {
		if !strings.Contains(got, want) {
			t.Fatalf("render missing %q:\n%s", want, got)
		}
	}
	var b2 strings.Builder
	tbl.Render(&b2)
	if got != b2.String() {
		t.Fatal("render not deterministic")
	}
}
