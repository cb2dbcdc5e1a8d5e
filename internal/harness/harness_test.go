package harness

import (
	"math"
	"slices"
	"strings"
	"testing"

	"seer"
	"seer/internal/bench"
	"seer/internal/stamp"
)

// mustRun runs one exhibit at test scale and returns its concrete data.
func mustRun[T Output](t *testing.T, run func(Options, Args) (Output, error), workloads []string) T {
	t.Helper()
	out, err := run(Options{Scale: 0.08, Runs: 1, Seed: 5}, Args{Workloads: workloads})
	if err != nil {
		t.Fatal(err)
	}
	return out.(T)
}

func TestRunOneBasic(t *testing.T) {
	res, err := RunOne(Spec{
		Workload: "ssca2", Scale: 0.1, Policy: seer.PolicyRTM,
		Threads: 4, Runs: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(res.Reports))
	}
	if res.MeanMakespan <= 0 {
		t.Fatalf("mean makespan = %v", res.MeanMakespan)
	}
	var pctSum float64
	for _, p := range res.MeanModePct {
		pctSum += p
	}
	if math.Abs(pctSum-100) > 0.5 {
		t.Fatalf("mode percentages sum to %v", pctSum)
	}
}

func TestRunOneUnknownWorkload(t *testing.T) {
	if _, err := RunOne(Spec{Workload: "nope", Policy: seer.PolicyRTM, Threads: 1}); err == nil {
		t.Fatalf("unknown workload accepted")
	}
}

func TestSequentialBaselinePositive(t *testing.T) {
	res, err := RunOne(Spec{Workload: "kmeans-low", Scale: 0.1, Policy: seer.PolicySeq, Threads: 1, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanMakespan <= 0 {
		t.Fatalf("baseline = %v", res.MeanMakespan)
	}
}

func TestSpeedupDefinition(t *testing.T) {
	r := Result{MeanMakespan: 50}
	if got := Speedup(100, r); got != 2 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	if got := Speedup(100, Result{}); got != 0 {
		t.Fatalf("zero-makespan speedup = %v, want 0", got)
	}
}

// TestGeoMean pins the geometric mean the Series and attempts reductions
// use: a failed cell's zero speedup is skipped, not folded in as a zero.
func TestGeoMean(t *testing.T) {
	if got := bench.GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 2", got)
	}
	if got := bench.GeoMean([]float64{2, 0, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean with zero = %v, want 4 (zeros skipped)", got)
	}
	if got := bench.GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
}

// TestSparkline pins the glyph row every timeline, quality and seerstat
// renderer prints: empty input gives "", a flat series the lowest glyph,
// and a series longer than width is averaged down to width buckets.
func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 8); got != "" {
		t.Fatalf("Sparkline(nil) = %q, want empty", got)
	}
	if got := Sparkline([]float64{1, 2}, 0); got != "" {
		t.Fatalf("Sparkline at width 0 = %q, want empty", got)
	}
	if got := Sparkline([]float64{3, 3, 3}, 8); got != "▁▁▁" {
		t.Fatalf("flat Sparkline = %q, want ▁▁▁", got)
	}
	if got := Sparkline([]float64{0, 7}, 8); got != "▁█" {
		t.Fatalf("Sparkline(0, 7) = %q, want ▁█", got)
	}
	// Eight values into four buckets: pairs average to 0.5, 2.5, 4.5, 6.5.
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if got, want := bucket(vals, 4), []float64{0.5, 2.5, 4.5, 6.5}; !slices.Equal(got, want) {
		t.Fatalf("bucket = %v, want %v", got, want)
	}
	if got := Sparkline(vals, 4); got != "▁▃▅█" {
		t.Fatalf("bucketed Sparkline = %q, want ▁▃▅█", got)
	}
}

func TestSeerVariantsOrdering(t *testing.T) {
	vs := SeerVariants()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	want := []string{"profile-only", "+tx-locks", "+core-locks", "+htm-locks", "+hill-climbing", "core-locks-only"}
	if len(names) != len(want) {
		t.Fatalf("variants = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("variants = %v, want %v", names, want)
		}
	}
	// Cumulative property: each step only enables more mechanisms.
	if vs[0].Opts.TxLocks || vs[0].Opts.CoreLocks || vs[0].Opts.HTMLockAcq || vs[0].Opts.HillClimb {
		t.Fatalf("profile-only variant has mechanisms enabled")
	}
	full := vs[4].Opts
	if !(full.TxLocks && full.CoreLocks && full.HTMLockAcq && full.HillClimb) {
		t.Fatalf("full variant missing mechanisms: %+v", full)
	}
	co := vs[5].Opts
	if co.TxLocks || !co.CoreLocks {
		t.Fatalf("core-locks-only wrong: %+v", co)
	}
}

func TestMachineConstantsMatchPaper(t *testing.T) {
	if MachineHWThreads != 8 || MachinePhysCores != 4 {
		t.Fatalf("testbed is %d threads / %d cores, paper used 8/4",
			MachineHWThreads, MachinePhysCores)
	}
}

// TestFig3SmallGrid runs a miniature Figure 3 end to end and checks the
// data structure and rendering.
func TestFig3SmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := Fig3Threads
	Fig3Threads = []int{1, 4}
	defer func() { Fig3Threads = old }()
	d := mustRun[*Series](t, fig3, []string{"ssca2"})
	for _, pol := range d.Cols {
		series := d.Value["ssca2"][pol]
		if len(series) != 2 {
			t.Fatalf("%s series = %v", pol, series)
		}
		for _, v := range series {
			if v <= 0 {
				t.Fatalf("%s has non-positive speedup: %v", pol, series)
			}
		}
		if d.Geomean[pol][1] <= 0 {
			t.Fatalf("geomean missing for %s", pol)
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "ssca2") || !strings.Contains(out, "geometric mean") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

// TestTable3Small checks the breakdown sums to ~100% per cell.
func TestTable3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := Table3Threads
	Table3Threads = []int{4}
	defer func() { Table3Threads = old }()
	d := mustRun[*Table3Data](t, table3, []string{"ssca2", "kmeans-high"})
	for _, pol := range d.Policies {
		var sum float64
		for m := 0; m < int(seer.NumModes); m++ {
			sum += d.Pct[pol][0][m]
		}
		if math.Abs(sum-100) > 0.5 {
			t.Fatalf("%s breakdown sums to %v", pol, sum)
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Table 3") {
		t.Fatalf("render missing title")
	}
}

// TestFig4Small checks relative speeds are near 1 (profiling is cheap).
func TestFig4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := Fig3Threads
	Fig3Threads = []int{2}
	defer func() { Fig3Threads = old }()
	d := mustRun[*Series](t, fig4, []string{"hashmap"})
	rel := d.Value["hashmap"]["profile-only"][0]
	if rel < 0.7 || rel > 1.3 {
		t.Fatalf("hashmap profiling overhead out of range: %v", rel)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 4") {
		t.Fatalf("render missing title")
	}
}

// TestFig5Small checks the ablation runs and renders.
func TestFig5Small(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := Table3Threads
	Table3Threads = []int{4}
	defer func() { Table3Threads = old }()
	d := mustRun[*Series](t, fig5, []string{"kmeans-high"})
	if len(d.Cols) != 6 {
		t.Fatalf("variants = %v", d.Cols)
	}
	base := d.Value["kmeans-high"]["profile-only"][0]
	if math.Abs(base-1) > 1e-9 {
		t.Fatalf("profile-only vs itself = %v, want 1", base)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Figure 5") {
		t.Fatalf("render missing title")
	}
}

// TestLockFracSmall checks the §5.2 statistic extraction.
func TestLockFracSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	d := mustRun[*LockFracData](t, lockFrac, []string{"intruder"})
	e := d.Rows[0]
	if e.Workload != "intruder" || e.MedianFrac < 0 || e.MedianFrac > 1 {
		t.Fatalf("median lock fraction = %v", e.MedianFrac)
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "granularity") {
		t.Fatalf("render missing title")
	}
}

// TestDeterministicResults: same Spec twice gives identical makespans.
func TestDeterministicResults(t *testing.T) {
	spec := Spec{Workload: "vacation-low", Scale: 0.08, Policy: seer.PolicySeer, Threads: 6, Runs: 1, Seed: 9}
	a, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanMakespan != b.MeanMakespan {
		t.Fatalf("nondeterministic: %v vs %v", a.MeanMakespan, b.MeanMakespan)
	}
}

// TestCSVExports: every exhibit writes parseable CSV with the right
// header and row counts.
func TestCSVExports(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	oldT := Fig3Threads
	Fig3Threads = []int{2}
	defer func() { Fig3Threads = oldT }()

	d3 := mustRun[*Series](t, fig3, []string{"ssca2"})
	var sb strings.Builder
	if err := d3.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// header + (1 workload + geomean) × 4 policies × 1 thread count
	if want := 1 + 2*4; len(rows) != want {
		t.Fatalf("fig3 csv rows = %d, want %d:\n%s", len(rows), want, sb.String())
	}
	if !strings.HasPrefix(rows[0], "exhibit,workload,policy,threads,speedup") {
		t.Fatalf("fig3 csv header = %q", rows[0])
	}
	for _, r := range rows[1:] {
		if len(strings.Split(r, ",")) != 5 {
			t.Fatalf("malformed row %q", r)
		}
	}

	oldTT := Table3Threads
	Table3Threads = []int{2}
	defer func() { Table3Threads = oldTT }()
	dt := mustRun[*Table3Data](t, table3, []string{"ssca2"})
	sb.Reset()
	if err := dt.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows = strings.Split(strings.TrimSpace(sb.String()), "\n")
	if want := 1 + 4*1*int(seer.NumModes); len(rows) != want {
		t.Fatalf("table3 csv rows = %d, want %d", len(rows), want)
	}
}

// TestAttemptsSweepSmall runs the retry-budget ablation on one workload.
func TestAttemptsSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid in -short mode")
	}
	old := AttemptBudgets
	AttemptBudgets = []int{1, 5}
	defer func() { AttemptBudgets = old }()
	d := mustRun[*AttemptsData](t, attempts, []string{"vacation-high"})
	for _, pol := range d.Policies {
		for bi, v := range d.Throughput[pol] {
			if v <= 0 {
				t.Fatalf("%s budget %s: throughput %v", pol, d.Budgets[bi], v)
			}
		}
	}
	var sb strings.Builder
	d.Render(&sb)
	if !strings.Contains(sb.String(), "Retry-budget") {
		t.Fatalf("render missing title")
	}
}

// TestOrderingRobustToCostModel: the reproduction's conclusions are about
// orderings, not absolute cycle counts — so the headline ordering
// (Seer > RTM on vacation-high at 8 threads) must survive ±33%
// perturbations of the HTM entry/exit costs.
func TestOrderingRobustToCostModel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow robustness sweep")
	}
	run := func(pol seer.PolicyKind, beginCost, endCost uint64) float64 {
		wl, err := stamp.New("vacation-high", 0.4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stamp.Config(wl, 8, seer.Topology{})
		cfg.Policy = pol
		cfg.Seed = 2
		cfg.Cost.XBegin = beginCost
		cfg.Cost.XEnd = endCost
		_, rep, err := stamp.Run(wl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput()
	}
	for _, costs := range [][2]uint64{{12, 8}, {18, 12}, {24, 16}} {
		rtm := run(seer.PolicyRTM, costs[0], costs[1])
		srr := run(seer.PolicySeer, costs[0], costs[1])
		if srr <= rtm {
			t.Errorf("ordering flipped at XBegin=%d/XEnd=%d: Seer %.2f <= RTM %.2f",
				costs[0], costs[1], srr, rtm)
		}
	}
}
