package harness

import (
	"reflect"
	"strings"
	"testing"

	"seer"
)

// fakeGrid returns a grid that has "run": every added cell's makespan is
// set from the table, keyed row/col/x, without simulating anything.
func fakeGrid(t *testing.T, add func(g *grid), makespan map[string]float64) *grid {
	t.Helper()
	g := newGrid(Options{})
	add(g)
	g.results = make([]Result, len(g.specs))
	for i, k := range g.keys {
		m, ok := makespan[k.row+"/"+k.col+"/"+k.x]
		if !ok {
			t.Fatalf("grid has unexpected cell %+v", k)
		}
		g.results[i] = Result{Spec: g.specs[i], MeanMakespan: m}
	}
	if len(g.keys) != len(makespan) {
		t.Fatalf("grid has %d cells, want %d: %+v", len(g.keys), len(makespan), g.keys)
	}
	return g
}

// TestGridSpecsAndLookup: a cell's Spec is the sweep defaults shaped by x
// then col, re-adding a label is a no-op, and results come back by label.
func TestGridSpecsAndLookup(t *testing.T) {
	g := newGrid(Options{Scale: 0.5, Runs: 2, Seed: 9})
	four := threadPoints([]int{4})[0]
	g.add("ssca2", policyPoint(seer.PolicyRTM), four)
	g.add("ssca2", sequential, four) // col overrides the x point's thread count
	g.add("ssca2", policyPoint(seer.PolicyRTM), four)
	want := []Spec{
		{Workload: "ssca2", Scale: 0.5, Runs: 2, Seed: 9, Policy: seer.PolicyRTM, Threads: 4},
		{Workload: "ssca2", Scale: 0.5, Runs: 2, Seed: 9, Policy: seer.PolicySeq, Threads: 1},
	}
	if !reflect.DeepEqual(g.specs, want) {
		t.Fatalf("specs = %+v\nwant %+v", g.specs, want)
	}
	g.results = []Result{{MeanMakespan: 10}, {MeanMakespan: 20}}
	if got := g.at("ssca2", "seq", "4").MeanMakespan; got != 20 {
		t.Fatalf("at(seq) = %v, want 20", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("at() of a label never added did not panic")
		}
	}()
	g.at("ssca2", "HLE", "4")
}

// TestGridOrderIndependent: the same labelled cells added in a different
// order give the same result under every label.
func TestGridOrderIndependent(t *testing.T) {
	rows := []string{"hashmap", "ssca2"}
	cols := policyPoints([]seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer})
	xs := threadPoints([]int{2, 4})
	fwd, rev := newGrid(Options{Scale: 0.05, Seed: 3}), newGrid(Options{Scale: 0.05, Seed: 3, Parallel: 2})
	fwd.cube(rows, cols, xs)
	for i := len(rows) - 1; i >= 0; i-- {
		for j := len(xs) - 1; j >= 0; j-- {
			rev.cube(rows[i:i+1], []point{cols[1], cols[0]}, xs[j:j+1])
		}
	}
	for _, g := range []*grid{fwd, rev} {
		if err := g.run("test", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range fwd.keys {
		if !reflect.DeepEqual(fwd.at(k.row, k.col, k.x), rev.at(k.row, k.col, k.x)) {
			t.Fatalf("cell %+v differs between add orders", k)
		}
	}
}

// TestSeriesReduceAndRender pins the series reducer's two reference
// modes and the renderer's two layouts on hand-made makespans.
func TestSeriesReduceAndRender(t *testing.T) {
	xs := threadPoints([]int{1, 2})
	cols := policyPoints([]seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer})

	perRow := seriesSpec{
		rows: []string{"a", "b"}, cols: cols, xs: xs, ref: sequential, refPerRow: true,
		style: seriesStyle{panel: "[%s]", geo: "[geo of %d]", label: "%-5[2]s", x: " %3st", val: " %4.1f"},
	}
	d := perRow.reduce(fakeGrid(t, perRow.addTo, map[string]float64{
		"a/seq/": 100, "a/RTM/1": 100, "a/RTM/2": 50, "a/Seer/1": 200, "a/Seer/2": 25,
		"b/seq/": 90, "b/RTM/1": 90, "b/RTM/2": 90, "b/Seer/1": 45, "b/Seer/2": 10,
	}))
	if got, want := d.Value["a"]["Seer"], []float64{0.5, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a/Seer = %v, want %v", got, want)
	}
	if got, want := d.Geomean["Seer"], []float64{1, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("geomean Seer = %v, want %v", got, want)
	}
	var sb strings.Builder
	d.Render(&sb)
	want := "[a]   1t   2t\nRTM    1.0  2.0\nSeer   0.5  4.0\n" +
		"[b]   1t   2t\nRTM    1.0  1.0\nSeer   2.0  9.0\n" +
		"[geo of 2]   1t   2t\nRTM    1.0  1.4\nSeer   1.0  6.0\n"
	if sb.String() != want {
		t.Fatalf("panelled render:\n%s\nwant:\n%s", sb.String(), want)
	}

	// Reference at the same x, the reference being the first measured
	// column: no cell is added for it twice.
	perX := seriesSpec{
		rows: []string{"a"}, cols: cols, xs: xs, ref: cols[0],
		style: seriesStyle{title: "T\n", head: "row col", label: "%-3s %-4s", x: " %3s", val: " %4.2f"},
	}
	d = perX.reduce(fakeGrid(t, perX.addTo, map[string]float64{
		"a/RTM/1": 100, "a/RTM/2": 60, "a/Seer/1": 50, "a/Seer/2": 120,
	}))
	sb.Reset()
	d.Render(&sb)
	want = "T\nrow col   1   2\n" +
		"a   RTM  1.00 1.00\na   Seer 2.00 0.50\n" +
		"geomean RTM  1.00 1.00\ngeomean Seer 2.00 0.50\n"
	if sb.String() != want {
		t.Fatalf("flat render:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestFig4CSVRowOrder: the Figure 4 CSV lists workloads in the rendered
// (sorted) order, identically on every write. It used to range over a map.
func TestFig4CSVRowOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := Fig3Threads
	Fig3Threads = []int{2}
	defer func() { Fig3Threads = old }()
	d := mustRun[*Series](t, fig4, []string{"ssca2", "hashmap", "kmeans-low"})
	var first string
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := d.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
		} else if sb.String() != first {
			t.Fatalf("write %d differs from the first:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
	var order []string
	for _, rec := range strings.Split(strings.TrimSpace(first), "\n") {
		order = append(order, strings.Split(rec, ",")[1])
	}
	if want := []string{"workload", "hashmap", "kmeans-low", "ssca2", "geomean"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("CSV row order = %v, want %v", order, want)
	}
}

// TestMatrixReduce: trimmed-mean throughput per cell, the last
// repetition's report kept, and the RTM-normalised table rendered.
func TestMatrixReduce(t *testing.T) {
	pols := []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer}
	report := func(commits uint64) seer.Report {
		rep := seer.Report{MakespanCycles: 1000}
		rep.Modes[seer.ModeHTM] = commits
		return rep
	}
	g := newGrid(Options{})
	g.cube([]string{"w"}, policyPoints(pols), fullMachine)
	g.results = []Result{
		{Reports: []seer.Report{report(10), report(20)}},
		{Reports: []seer.Report{report(40), report(50)}},
	}
	m := reduceMatrix(g, "title", "workload", []string{"w"}, pols)
	if got, want := m.Throughput, [][]float64{{15, 45}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("throughput = %v, want %v", got, want)
	}
	if got := m.Last[0][m.col(seer.PolicySeer)].Commits(); got != 50 {
		t.Fatalf("last Seer report has %d commits, want 50", got)
	}
	var sb strings.Builder
	m.Render(&sb)
	for _, want := range []string{"title\n", "15.00", "45.00", "RTM = 1.00", " 3.00"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}
}

// TestSelect: "all" is exactly the paper's exhibits in registry order,
// a name selects itself, and a typo lists what exists.
func TestSelect(t *testing.T) {
	names := func(es []Exhibit) string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name)
		}
		return strings.Join(out, " ")
	}
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := names(all), "fig3 table3 fig4 fig5 lockfrac ext attempts timeline"; got != want {
		t.Fatalf("all = %q, want %q", got, want)
	}
	for _, name := range Names() {
		one, err := Select(name)
		if err != nil || names(one) != name {
			t.Fatalf("Select(%q) = %q, %v", name, names(one), err)
		}
	}
	if _, err := Select("fig33"); err == nil || !strings.Contains(err.Error(), strings.Join(Names(), "|")+"|all") {
		t.Fatalf("Select(fig33) error = %v, want the registry names listed", err)
	}
}
