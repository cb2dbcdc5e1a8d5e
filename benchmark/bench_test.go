package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seer"
	"seer/internal/harness"
)

// TestRunnerConformance: the benchmark's own cell runner and
// harness.RunOne produce the same Report.Summary for one cell of each
// workload, so the benchmark measures what seerbench users run.
func TestRunnerConformance(t *testing.T) {
	for _, w := range workloads {
		w.Scale = 0.05
		c := w.Cells[len(w.Cells)-1]
		t.Run(w.Name+"/"+c.String(), func(t *testing.T) {
			got, err := runCell(w, c, 3, new(seer.Recycler))
			if err != nil {
				t.Fatal(err)
			}
			want, err := harness.RunOne(c.harnessSpec(w, 3))
			if err != nil {
				t.Fatal(err)
			}
			if g, h := got.Report.Summary(), want.Reports[0].Summary(); g != h {
				t.Errorf("summaries differ:\n--- benchmark\n%s--- harness\n%s", g, h)
			}
			var sum int64
			for _, d := range got.Phases {
				sum += d.Nanoseconds()
			}
			if sum > got.Total.Nanoseconds() {
				t.Errorf("phases sum to %dns, more than the cell's %dns", sum, got.Total.Nanoseconds())
			}
		})
	}
}

// TestWorkloadTable pins the fixed sizes the exact counts depend on.
func TestWorkloadTable(t *testing.T) {
	want := map[string]int{"suite-8t": 74, "wide-128t": 32, "convoy-8t": 25, "infer-obs": 15}
	if len(workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(workloads), len(want))
	}
	for _, w := range workloads {
		if len(w.Cells) != want[w.Name] {
			t.Errorf("%s: %d cells, want %d", w.Name, len(w.Cells), want[w.Name])
		}
		if _, ok := goldenDigest(w.Name); !ok {
			t.Errorf("%s: no golden digest under golden/", w.Name)
		}
	}
}

// smallWorkload is infer-obs cut down to three small cells.
func smallWorkload() workload {
	w, _ := findWorkload("infer-obs")
	w.Scale, w.Cells = 0.05, w.Cells[:3]
	return w
}

// smallRep runs smallWorkload in-process with a tracer.
func smallRep(t *testing.T) (repResult, *tracer) {
	t.Helper()
	tr := &tracer{}
	rep := runRep(smallWorkload(), 1, tr)
	if rep.Failed != 0 {
		t.Fatalf("failed cells: %v", rep.Errors)
	}
	return rep, tr
}

// TestRepRepeatsExactly: two reps of one seed agree on the digest and
// every count; another seed does not.
func TestRepRepeatsExactly(t *testing.T) {
	a, _ := smallRep(t)
	b, _ := smallRep(t)
	if a.Digest != b.Digest || a.Counts != b.Counts || a.ThroughputGeo != b.ThroughputGeo {
		t.Errorf("same seed, different results:\n%+v\n%+v", a.Counts, b.Counts)
	}
	if c := runRep(smallWorkload(), 2, nil); c.Digest == a.Digest {
		t.Error("seed 2 produced seed 1's digest: the seed does not reach the cells")
	}
}

// TestTraceWellFormed: the trace file is loadable Chrome trace-event
// JSON in which every span but the root has a recorded parent, the
// phases of a cell carry its cell id, and they sum to at most the cell.
func TestTraceWellFormed(t *testing.T) {
	_, child := smallRep(t)
	tr := &tracer{}
	root := tr.open("bench", -1, time.UnixMicro(child.spans[0].StartUS))
	tr.adopt(child.spans, root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   float64
			Dur  float64
			Args struct {
				ID, Parent int
				Cell       *int
			}
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	ev := doc.TraceEvents
	if len(ev) != 1+1+3*(1+numPhases) {
		t.Fatalf("%d events, want root + workload + 3 cells with %d phases", len(ev), numPhases)
	}
	phaseSum := map[int]float64{}
	cellDur := map[int]float64{}
	for i, e := range ev {
		if e.Ph != "X" || e.Args.ID != i {
			t.Errorf("event %d: ph=%q id=%d", i, e.Ph, e.Args.ID)
		}
		if e.Args.Parent < 0 {
			if i != 0 {
				t.Errorf("event %d (%s) has no parent", i, e.Name)
			}
			continue
		}
		if e.Args.Parent >= i {
			t.Errorf("event %d (%s): parent %d not recorded before it", i, e.Name, e.Args.Parent)
			continue
		}
		parent := ev[e.Args.Parent]
		if e.Args.Cell == nil {
			continue
		}
		if parent.Args.Cell == nil {
			cellDur[*e.Args.Cell] = e.Dur // the cell span itself
		} else {
			if *parent.Args.Cell != *e.Args.Cell {
				t.Errorf("phase %s of cell %d hangs under cell %d", e.Name, *e.Args.Cell, *parent.Args.Cell)
			}
			phaseSum[*e.Args.Cell] += e.Dur
		}
	}
	for cell, dur := range cellDur {
		if phaseSum[cell] > dur {
			t.Errorf("cell %d: phases %.1fus exceed the cell's %.1fus", cell, phaseSum[cell], dur)
		}
	}
	if len(cellDur) != 3 {
		t.Errorf("%d cell spans, want 3", len(cellDur))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and of range(1, 6).
	cases := []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
	s := summarize("s", []float64{2, 1, 4, 3, 5})
	if s.Value != 3 || s.Min != 1 || s.Max != 5 || s.N != 5 || math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("summarize: %+v spread %v", s, s.spread())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Clock: "host", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "commits_per_s", Clock: "host", Better: "higher", Bound: 0.05}
	count := metricDef{Name: "count.commits", Clock: "sim", Better: "higher"}
	layer := metricDef{Name: "machine.tick_ns.8t", Clock: "host"}
	tight := func(v float64) summary { return summarize("", []float64{v * 0.999, v, v * 1.001, v, v}) }
	loose := func(v float64) summary { return summarize("", []float64{v * 0.8, v * 0.9, v, v * 1.1, v * 1.2}) }
	cases := []struct {
		name      string
		def       metricDef
		old, cur  summary
		sameSeed  bool
		symmetric bool
		want      string
	}{
		{"within bound", lower, tight(10), tight(10.3), true, false, verdictOK},
		{"slower past bound", lower, tight(10), tight(10.6), true, false, verdictRegressed},
		{"rate dropped past bound", higher, tight(100), tight(94), true, false, verdictRegressed},
		{"faster is not a regression", lower, tight(10), tight(9), true, false, verdictOK},
		{"faster fails a selfcheck", lower, tight(10), tight(9), true, true, verdictDisagree},
		{"spread wider than bound", lower, loose(10), loose(10.1), true, false, verdictUnresolved},
		{"wide spread but every run better", lower, loose(10), tight(7), true, false, verdictOK},
		{"count moved", count, single("", 100), single("", 101), true, false, verdictChanged},
		{"count equal", count, single("", 100), single("", 100), true, false, verdictOK},
		{"count at another seed", count, single("", 100), single("", 101), false, false, verdictInfo},
		{"layer timing is never gated", layer, single("", 100), single("", 300), true, false, verdictInfo},
	}
	for _, c := range cases {
		r := compareRow{Metric: c.def, Old: c.old, New: c.cur}
		r.judge(c.sameSeed, c.symmetric)
		if r.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (worse %.3f)", c.name, r.Verdict, c.want, r.worse())
		}
	}

	old := &ledger{Seed: 1, Workloads: []workloadResult{{Name: "w", Digest: "a", Metrics: metricSet{"wall_s": tight(10)}}}}
	cur := &ledger{Seed: 1, Workloads: []workloadResult{{Name: "w", Digest: "b", Metrics: metricSet{"wall_s": tight(10)}}}}
	rows := compareLedgers(old, cur, false)
	if rows[0].Metric.Name != "sim_digest" || !rows[0].failed() {
		t.Errorf("a moved sim_digest at the same seed must fail, got %+v", rows[0])
	}
}

func TestProfileParsing(t *testing.T) {
	for sym, want := range map[string]string{
		"seer/internal/machine.(*Ctx).Tick":                 "seer/internal/machine",
		"seer.(*Thread).AtomicObj":                          "seer",
		"runtime.mcall":                                     "runtime",
		"iter.Pull[go.shape.int,go.shape.struct {}].func1":  "iter",
		"internal/runtime/atomic.(*Uint32).Load":            "internal/runtime/atomic",
		"seer/internal/stamp.(*Intruder).Workers.func1.2.1": "seer/internal/stamp",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
	top := `File: benchmark
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      0.90s 45.00%  seer/internal/machine.(*Engine).Run
     0.50s 25.00% 65.00%      0.50s 25.00%  iter.Pull[go.shape.int,go.shape.struct {}].func1
     0.40s 20.00% 85.00%      0.40s 20.00%  seer/internal/txtrace.(*Collector).OnDoom
     0.30s 15.00%   100%      0.30s 15.00%  main.runCell
`
	shares, err := parseTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"machine": 40, "runtime": 25, "obs": 20, "other": 15}
	for k, v := range want {
		if shares[k] != v {
			t.Errorf("share %s = %v, want %v", k, shares[k], v)
		}
	}
	if _, err := parseTop([]byte("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json at the repository
// root and the tables in this package saying the same thing.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		j := doc.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound == nil || *j.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, table %+v", i, j, d)
		}
	}
	layer := map[string]string{"host.calib_ms": "ms"}
	for _, d := range perWorkloadLayer {
		layer[d.Name] = d.Unit
	}
	for _, d := range drivers {
		layer[d.name] = d.unit
	}
	for _, m := range pairedMetrics {
		layer[m.name] = m.unit
	}
	if len(doc.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the tables %d", len(doc.PerLayer), len(layer))
	}
	for _, j := range doc.PerLayer {
		if unit, ok := layer[j.Name]; !ok || unit != j.Unit {
			t.Errorf("per-layer %s (%s): not in the tables with that unit (have %q)", j.Name, j.Unit, unit)
		}
	}
}
