package bench

import (
	"math"
	"strings"
	"testing"
)

func TestCross(t *testing.T) {
	got := Cross(2, 3)
	if len(got) != 6 {
		t.Fatalf("Cross(2,3) has %d cells", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 0 || got[5][0] != 1 || got[5][1] != 2 {
		t.Fatalf("Cross order wrong: %v", got)
	}
	// Row-major: the last dimension varies fastest.
	if got[1][1] != 1 {
		t.Fatalf("Cross not row-major: %v", got)
	}
	if Cross(3, 0) != nil || Cross() == nil {
		t.Fatal("degenerate dims mishandled")
	}
}

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
	if got := DropWarmup([]float64{1, 2, 3}, 1); len(got) != 2 || got[0] != 2 {
		t.Fatalf("DropWarmup = %v", got)
	}
	if got := DropWarmup([]float64{1}, 5); len(got) != 0 {
		t.Fatalf("DropWarmup past end = %v", got)
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
