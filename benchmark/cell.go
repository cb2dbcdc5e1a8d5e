package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"seer"
	"seer/internal/bench"
	"seer/internal/core"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// Phases of one cell, in execution order. new_system covers stamp.New,
// the config and seer.NewSystem; set-up time is new_system + setup.
const (
	phNewSystem = iota
	phSetup
	phRun
	phValidate
	phRelease
	numPhases
)

var phaseNames = [numPhases]string{"new_system", "setup", "run", "validate", "release"}

// harnessSpec is the cell as the harness (and so seerbench) would run it.
// The event log and attempt spans of an Obs workload have no harness
// knob; they do not change Report.Summary, which is what the conformance
// test compares.
func (c cellSpec) harnessSpec(w workload, seed int64) harness.Spec {
	sp := harness.Spec{
		Workload: c.Workload, Scale: w.Scale, Policy: c.Policy,
		Threads: c.Threads, Runs: 1, Seed: seed, Topology: c.Topo,
	}
	if w.Obs {
		sp.MetricsInterval = obsMetricsInterval
		sp.Inference = true
	}
	return sp
}

// config mirrors harness.runOnce, so a cell here is the cell a seerbench
// user runs (TestRunnerConformance pins that).
func (c cellSpec) config(w workload, wl stamp.Workload, seed int64, rec *seer.Recycler) seer.Config {
	cfg := seer.DefaultConfig()
	cfg.Threads = c.Threads
	cfg.Seed = seed
	cfg.Policy = c.Policy
	cfg.NumAtomicBlocks = wl.NumAtomicBlocks()
	cfg.MemWords = wl.MemWords() + (1 << 14)
	if c.Topo.IsZero() {
		cfg.HWThreads = harness.MachineHWThreads
		cfg.PhysCores = harness.MachinePhysCores
	} else {
		cfg.Topology = c.Topo
		cfg.MemWords += c.Topo.Threads() * 2048
	}
	cfg.MaxCycles = 1 << 36
	cfg.Seer = core.DefaultOptions()
	if w.Obs {
		cfg.MetricsInterval = obsMetricsInterval
		cfg.TraceEvents = obsTraceEvents
		cfg.TraceAttempts = true
	}
	cfg.Recycler = rec
	return cfg
}

// cellResult is one executed cell: its report and where its host time went.
type cellResult struct {
	Report seer.Report
	Start  time.Time
	Phases [numPhases]time.Duration
	Total  time.Duration
}

// buildCell builds the cell's system and populates its simulated memory:
// the set-up half of a cell. lap is called after each of the two phases.
func buildCell(w workload, c cellSpec, seed int64, rec *seer.Recycler, lap func(ph int)) (stamp.Workload, *seer.System, error) {
	wl, err := stamp.New(c.Workload, w.Scale)
	if err != nil {
		return nil, nil, err
	}
	sys, err := seer.NewSystem(c.config(w, wl, seed, rec))
	if err != nil {
		return nil, nil, err
	}
	lap(phNewSystem)
	if err := wl.Setup(sys); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	lap(phSetup)
	return wl, sys, nil
}

// runCell executes one cell — build, populate, run, validate, release —
// timing each phase from outside. Any error fails the cell.
func runCell(w workload, c cellSpec, seed int64, rec *seer.Recycler) (res cellResult, err error) {
	res.Start = time.Now()
	mark := res.Start
	lap := func(ph int) {
		now := time.Now()
		res.Phases[ph] = now.Sub(mark)
		mark = now
	}
	defer func() { res.Total = time.Since(res.Start) }()

	wl, sys, err := buildCell(w, c, seed, rec, lap)
	if err != nil {
		return res, err
	}
	res.Report, err = sys.Run(wl.Workers(c.Threads))
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	lap(phRun)
	if err := wl.Validate(sys); err != nil {
		return res, fmt.Errorf("validate: %w", err)
	}
	lap(phValidate)
	sys.Release()
	lap(phRelease)
	return res, nil
}

// setupPasses is how many set-up-only passes follow the measured cells
// of a rep. A workload's set-up sums to a few milliseconds, so one
// reading is mostly host noise; setup_s is the median of these passes
// and the pass inside the rep.
const setupPasses = 8

// setupPass builds and populates every cell of w once, without running
// it, and returns the summed set-up time in seconds.
func setupPass(w workload, seed int64, rec *seer.Recycler) (float64, error) {
	var total time.Duration
	for _, c := range w.Cells {
		start := time.Now()
		_, sys, err := buildCell(w, c, seed, rec, func(int) {})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c, err)
		}
		total += time.Since(start)
		sys.Release()
	}
	return total.Seconds(), nil
}

// counts are the exact work counts of one rep, summed over its cells from
// the exported seer.Report. They repeat bit for bit for a fixed seed.
type counts struct {
	Cells                uint64
	SimCycles            uint64
	Commits              uint64
	HWAttempts           uint64
	HWCommits            uint64
	HWAborts             uint64
	AbortsConflict       uint64
	AbortsCapacity       uint64
	Fallbacks            uint64
	SGLCommits           uint64
	SWCommits            uint64
	QuantumGrants        uint64
	QuantumTicks         uint64
	QuantumRollbackTicks uint64
	SchemeUpdates        uint64
}

func (n *counts) add(r seer.Report) {
	n.Cells++
	n.SimCycles += r.MakespanCycles
	n.Commits += r.Commits()
	n.HWAttempts += r.HWAttempts
	n.HWCommits += r.HTM.Commits
	n.HWAborts += r.HTM.Aborts
	n.AbortsConflict += r.HTM.ConflictAborts
	n.AbortsCapacity += r.HTM.CapacityAborts
	n.Fallbacks += r.Fallbacks
	n.SGLCommits += r.Modes[seer.ModeSGL]
	if r.Phased != nil {
		n.SWCommits += r.Phased.SWCommits
	}
	if q := r.Quantum; q != nil {
		n.QuantumGrants += q.Grants
		n.QuantumTicks += q.Ticks
		n.QuantumRollbackTicks += q.RollbackTicks
	}
	if r.Seer != nil {
		n.SchemeUpdates += r.Seer.SchemeUpdates
	}
}

// repResult is one repetition of one workload: every cell once, in spec
// order, in one process. It is what a -child process prints.
type repResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Cells    int      `json:"cells"`
	Failed   int      `json:"failed"`
	Errors   []string `json:"errors,omitempty"`

	WallS      float64            `json:"wall_s"`
	SetupS     float64            `json:"setup_s"` // median over the rep's set-up passes
	PhaseS     [numPhases]float64 `json:"phase_s"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSKB  uint64             `json:"peak_rss_kb"`
	CalibMS    float64            `json:"calib_ms"`

	Digest        string  `json:"sim_digest"`
	Counts        counts  `json:"counts"`
	ThroughputGeo float64 `json:"sim_throughput_geo"`
	SeerVsRTMGeo  float64 `json:"seer_vs_rtm_geo"`

	Spans []span `json:"spans,omitempty"`
}

// selfS is the rep's time outside any phase: the runner's own loop.
func (r repResult) selfS() float64 {
	s := r.WallS
	for _, p := range r.PhaseS {
		s -= p
	}
	return s
}

// runRep executes every cell of w once, back to back on one goroutine
// with one recycler (the Parallel=1 path of harness.RunGrid), then the
// set-up-only passes, which are outside wall_s and the allocation
// counts. With a tracer it also records a span per cell and phase; the
// clock reads are the same either way.
func runRep(w workload, seed int64, tr *tracer) repResult {
	rep := repResult{Workload: w.Name, Seed: seed, Cells: len(w.Cells)}
	digest := sha256.New()
	tputs := make([]float64, len(w.Cells)) // 0 for a failed cell
	rec := new(seer.Recycler)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	wlSpan := tr.open("workload:"+w.Name, -1, start)
	for i, c := range w.Cells {
		res, err := runCell(w, c, seed, rec)
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", c, err))
			continue
		}
		for ph, d := range res.Phases {
			rep.PhaseS[ph] += d.Seconds()
		}
		tr.cell(wlSpan, i, c, res)
		digest.Write([]byte(res.Report.Summary()))
		rep.Counts.add(res.Report)
		tputs[i] = res.Report.Throughput()
	}
	wall := time.Since(start)
	tr.close(wlSpan, wall)
	runtime.ReadMemStats(&after)

	setups := []float64{rep.PhaseS[phNewSystem] + rep.PhaseS[phSetup]}
	for pass := 0; pass < setupPasses && rep.Failed == 0; pass++ {
		s, err := setupPass(w, seed, rec)
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, "set-up pass: "+err.Error())
			break
		}
		setups = append(setups, s)
	}
	rep.SetupS = median(setups)

	rep.WallS = wall.Seconds()
	rep.Mallocs = after.Mallocs - before.Mallocs
	rep.AllocBytes = after.TotalAlloc - before.TotalAlloc
	rep.Digest = hex.EncodeToString(digest.Sum(nil))
	rep.ThroughputGeo = bench.GeoMean(tputs)
	rep.SeerVsRTMGeo = seerVsRTM(w.Cells, tputs)
	return rep
}

// seerVsRTM is the geomean, over cells that differ only in policy, of
// Seer throughput over RTM throughput (0 when the workload has no such
// pair).
func seerVsRTM(cells []cellSpec, tputs []float64) float64 {
	rtm := map[cellSpec]float64{}
	for i, c := range cells {
		if c.Policy == seer.PolicyRTM {
			c.Policy = ""
			rtm[c] = tputs[i]
		}
	}
	var ratios []float64
	for i, c := range cells {
		if c.Policy != seer.PolicySeer {
			continue
		}
		c.Policy = ""
		if base := rtm[c]; base > 0 {
			ratios = append(ratios, tputs[i]/base)
		}
	}
	return bench.GeoMean(ratios)
}
