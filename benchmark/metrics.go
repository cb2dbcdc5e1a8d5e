package main

import "fmt"

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatchesMetrics keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string  // "host": host clock or memory; "sim": simulated, repeats exactly for a seed
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median it may worsen by (end-to-end only)
}

// exactAtSeed reports whether a metric must be equal between two runs of
// the same seed: every simulated result and every work count.
func (d metricDef) exactAtSeed() bool { return d.Clock == "sim" }

// endToEnd are the metrics a user of the simulator sees, per workload.
// The PR driver compares medians taken over different seeds on a host
// that drifts by a few percent over minutes, so each bound is about three
// times the widest spread (IQR / median over ten seeds) seen on the
// 2-core reference box; README.md, "Steadiness", has the readings.
var endToEnd = []metricDef{
	// wall time of one rep's cells, all phases
	{"wall_s", "s", "host", "lower", 0.16},
	// sum over cells of stamp.New + seer.NewSystem + Workload.Setup; per rep
	// the median of the in-rep pass and the set-up-only passes
	{"setup_s", "s", "host", "lower", 0.25},
	// committed atomic blocks simulated per host second
	{"commits_per_s", "1/s", "host", "higher", 0.16},
	// simulated megacycles per host second
	{"sim_mcycles_per_s", "Mcycles/s", "host", "higher", 0.16},
	// Go heap allocations per cell (runtime.MemStats.Mallocs)
	{"allocs_per_cell", "count", "host", "lower", 0.04},
	// Go heap megabytes allocated per cell (TotalAlloc)
	{"alloc_mb_per_cell", "MB", "host", "lower", 0.10},
	// peak resident set of the rep's process (VmHWM)
	{"peak_rss_mb", "MB", "host", "lower", 0.20},
	// geomean over cells of Report.Throughput: the modelled design's
	// result. Exact at one seed; the bound only covers seed-to-seed spread.
	{"sim_throughput_geo", "commits/kcycle", "sim", "higher", 0.20},
}

// perWorkloadLayer are the per-layer metrics that belong to one workload:
// where a rep's host time went, its exact work counts, and the ratios of
// useful to attempted work. They come from the traced run.
var perWorkloadLayer = []metricDef{
	{"phase.new_system_s", "s", "host", "lower", 0},              // stamp.New + config + seer.NewSystem, summed over cells
	{"phase.setup_s", "s", "host", "lower", 0},                   // Workload.Setup, summed over cells
	{"phase.run_s", "s", "host", "lower", 0},                     // System.Run, summed over cells
	{"phase.validate_s", "s", "host", "lower", 0},                // Workload.Validate, summed over cells
	{"phase.release_s", "s", "host", "lower", 0},                 // System.Release, summed over cells
	{"phase.self_s", "s", "host", "lower", 0},                    // the cell runner's own time: workload span minus phases
	{"trace_overhead_pct", "%", "host", "lower", 0},              // traced rep wall vs. untraced median
	{"count.cells", "count", "sim", "higher", 0},                 // cells executed
	{"count.sim_cycles", "count", "sim", "lower", 0},             // sum of MakespanCycles
	{"count.commits", "count", "sim", "higher", 0},               // committed atomic blocks, all modes
	{"count.hw_attempts", "count", "sim", "lower", 0},            // hardware attempts issued by the policies
	{"count.aborts.conflict", "count", "sim", "lower", 0},        // hardware conflict aborts
	{"count.aborts.capacity", "count", "sim", "lower", 0},        // hardware capacity aborts
	{"count.aborts.other", "count", "sim", "lower", 0},           // explicit and spurious hardware aborts
	{"count.fallbacks", "count", "sim", "lower", 0},              // single-global-lock acquisitions
	{"count.sw_commits", "count", "sim", "higher", 0},            // commits on the software (STM) path
	{"count.quantum_grants", "count", "sim", "higher", 0},        // speculative quanta granted
	{"count.quantum_ticks", "count", "sim", "higher", 0},         // pure ticks journaled in quanta
	{"count.quantum_rollback_ticks", "count", "sim", "lower", 0}, // journaled ticks discarded by rollbacks
	{"count.scheme_updates", "count", "sim", "lower", 0},         // Seer locking-scheme recomputations
	{"htm.commit_ratio", "ratio", "sim", "higher", 0},            // hardware commits per hardware transaction begun
	{"machine.quantum_waste_ratio", "ratio", "sim", "lower", 0},  // quantum rollback ticks per journaled tick
	{"policy.sgl_pct", "%", "sim", "lower", 0},                   // share of commits under the single global lock
	{"policy.seer_vs_rtm_geo", "ratio", "sim", "higher", 0},      // geomean Seer/RTM throughput over matching cells; 0 when the workload has none
}

// metricSet maps metric name to its readings.
type metricSet map[string]summary

// endToEndMetrics folds the untraced reps of one workload into the
// end-to-end metrics.
func endToEndMetrics(reps []repResult) metricSet {
	col := func(f func(repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	cells := func(r repResult) float64 { return float64(max(r.Cells-r.Failed, 1)) }
	vals := map[string][]float64{
		"wall_s":             col(func(r repResult) float64 { return r.WallS }),
		"setup_s":            col(func(r repResult) float64 { return r.SetupS }),
		"commits_per_s":      col(func(r repResult) float64 { return float64(r.Counts.Commits) / r.WallS }),
		"sim_mcycles_per_s":  col(func(r repResult) float64 { return float64(r.Counts.SimCycles) / r.WallS / 1e6 }),
		"allocs_per_cell":    col(func(r repResult) float64 { return float64(r.Mallocs) / cells(r) }),
		"alloc_mb_per_cell":  col(func(r repResult) float64 { return float64(r.AllocBytes) / cells(r) / (1 << 20) }),
		"peak_rss_mb":        col(func(r repResult) float64 { return float64(r.PeakRSSKB) / 1024 }),
		"sim_throughput_geo": col(func(r repResult) float64 { return r.ThroughputGeo }),
	}
	out := metricSet{}
	for _, d := range endToEnd {
		out[d.Name] = summarize(d.Unit, vals[d.Name])
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics derives one workload's per-layer metrics from its traced
// rep; untracedWall is the median wall of the untraced reps.
func layerMetrics(tr repResult, untracedWall float64) metricSet {
	n := tr.Counts
	v := map[string]float64{
		"phase.self_s":                 tr.selfS(),
		"trace_overhead_pct":           100 * (tr.WallS - untracedWall) / untracedWall,
		"count.cells":                  float64(n.Cells),
		"count.sim_cycles":             float64(n.SimCycles),
		"count.commits":                float64(n.Commits),
		"count.hw_attempts":            float64(n.HWAttempts),
		"count.aborts.conflict":        float64(n.AbortsConflict),
		"count.aborts.capacity":        float64(n.AbortsCapacity),
		"count.aborts.other":           float64(n.HWAborts - n.AbortsConflict - n.AbortsCapacity),
		"count.fallbacks":              float64(n.Fallbacks),
		"count.sw_commits":             float64(n.SWCommits),
		"count.quantum_grants":         float64(n.QuantumGrants),
		"count.quantum_ticks":          float64(n.QuantumTicks),
		"count.quantum_rollback_ticks": float64(n.QuantumRollbackTicks),
		"count.scheme_updates":         float64(n.SchemeUpdates),
		"htm.commit_ratio":             ratio(n.HWCommits, n.HWCommits+n.HWAborts),
		"machine.quantum_waste_ratio":  ratio(n.QuantumRollbackTicks, n.QuantumTicks),
		"policy.sgl_pct":               100 * ratio(n.SGLCommits, n.Commits),
		"policy.seer_vs_rtm_geo":       tr.SeerVsRTMGeo,
	}
	for ph, name := range phaseNames {
		v[fmt.Sprintf("phase.%s_s", name)] = tr.PhaseS[ph]
	}
	out := metricSet{}
	for _, d := range perWorkloadLayer {
		out[d.Name] = single(d.Unit, v[d.Name])
	}
	return out
}
