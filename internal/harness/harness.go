// Package harness drives the paper's evaluation: it runs (workload ×
// policy × thread-count) grids on the simulated machine, averages over
// repetitions, computes speedups against the sequential uninstrumented
// baseline, and renders the tables and figures of the paper as text.
package harness

import (
	"fmt"

	"seer"
	"seer/internal/core"
	"seer/internal/stamp"
)

// MachineHWThreads and MachinePhysCores are the paper's testbed (see
// stamp.TestbedHWThreads), under the names the exhibit code reads.
const (
	MachineHWThreads = stamp.TestbedHWThreads
	MachinePhysCores = stamp.TestbedPhysCores
)

// Spec describes one measurement cell. Each field is set by an exhibit
// or a CLI flag (TestKnobTable); engine mechanics such as the speculation
// depth have no field, so every exhibit runs the one schedule
// seer.NewSystem builds.
type Spec struct {
	Workload string
	Scale    float64
	Policy   seer.PolicyKind
	// SeerOpts overrides the scheduler options (nil = core defaults);
	// used for the Figure 4/5 variants.
	SeerOpts *seer.SeerOptions
	// MaxAttempts overrides the hardware retry budget (0 = the paper's 5).
	MaxAttempts int
	Threads     int
	Runs        int
	Seed        int64
	// MetricsInterval enables the telemetry timeline on every run of
	// this cell (cycles per snapshot; 0 = disabled). The snapshots are
	// attached to each Report in Result.Reports.
	MetricsInterval uint64
	// Topology, when non-zero, replaces the default 8-thread testbed
	// shape for this cell (the scaling experiment sweeps it).
	Topology seer.Topology
	// RemoteAccessCost charges extra cycles for cross-socket accesses on
	// multi-socket topologies (see seer.Config.RemoteAccessCost).
	RemoteAccessCost uint64
	// Inference enables the abort-attribution counters and, under the
	// Seer policy, the inference-quality trajectory in Report.Inference
	// (see seer.Config.AttributionCounters).
	Inference bool
}

// Result aggregates the repetitions of one Spec.
type Result struct {
	Spec    Spec
	Reports []seer.Report
	// MeanMakespan is the arithmetic mean of makespans over runs.
	MeanMakespan float64
	// MeanModePct averages the Table 3 percentage breakdown.
	MeanModePct [seer.NumModes]float64
}

// RunOne executes one Spec on a fresh simulator.
func RunOne(spec Spec) (Result, error) { return runOneWith(spec, nil) }

// runOneWith executes one Spec, building each run's simulator replica on
// rec's buffers when rec is non-nil (the per-worker replica path of
// RunGrid). Results are identical either way: a recycled replica is
// reset to power-on state before use.
func runOneWith(spec Spec, rec *seer.Recycler) (Result, error) {
	if spec.Runs <= 0 {
		spec.Runs = 1
	}
	res := Result{Spec: spec}
	for run := 0; run < spec.Runs; run++ {
		rep, err := runOnce(spec, spec.Seed+int64(run)*7919, rec)
		if err != nil {
			return res, fmt.Errorf("%s/%s/%dt run %d: %w",
				spec.Workload, spec.Policy, spec.Threads, run, err)
		}
		res.Reports = append(res.Reports, rep)
		res.MeanMakespan += float64(rep.MakespanCycles)
		pct := rep.ModeFractions()
		for i := range pct {
			res.MeanModePct[i] += pct[i]
		}
	}
	res.MeanMakespan /= float64(spec.Runs)
	for i := range res.MeanModePct {
		res.MeanModePct[i] /= float64(spec.Runs)
	}
	return res, nil
}

// Config is the cell's seer.Config: the stamp recipe for wl plus this
// Spec's overrides, seeded with seed. seerstat builds its cell through
// it too, so the two CLIs size and shape a cell identically.
func (spec Spec) Config(wl stamp.Workload, seed int64) seer.Config {
	cfg := stamp.Config(wl, spec.Threads, spec.Topology)
	cfg.RemoteAccessCost = spec.RemoteAccessCost
	cfg.Seed = seed
	cfg.Policy = spec.Policy
	if spec.MaxAttempts > 0 {
		cfg.MaxAttempts = spec.MaxAttempts
	}
	if spec.SeerOpts != nil {
		cfg.Seer = *spec.SeerOpts
	}
	cfg.MetricsInterval = spec.MetricsInterval
	cfg.AttributionCounters = spec.Inference
	return cfg
}

// runOnce runs and validates one repetition of the cell. With a
// recycler the system is a replica built on the caller's reusable
// buffers, returned to it after validation — so only what the Report owns
// (Timeline and Inference are copies) crosses the Release; anything
// borrowed from sys.Recorder() would be overwritten by the next cell.
func runOnce(spec Spec, seed int64, rec *seer.Recycler) (seer.Report, error) {
	wl, err := stamp.New(spec.Workload, spec.Scale)
	if err != nil {
		return seer.Report{}, err
	}
	cfg := spec.Config(wl, seed)
	cfg.Recycler = rec
	sys, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		return seer.Report{}, err
	}
	sys.Release()
	return rep, nil
}

// Speedup converts a Result to a speedup given the sequential baseline
// makespan.
func Speedup(baseline float64, r Result) float64 {
	if r.MeanMakespan == 0 {
		return 0
	}
	return baseline / r.MeanMakespan
}

// Variant is a named Seer option set, one column of the ablation
// exhibits (Figure 5, ext).
type Variant struct {
	Name string
	Opts seer.SeerOptions
}

// SeerVariants returns the cumulative option sets of Figure 5, in
// presentation order, plus the core-locks-only variant discussed in §5.3.
func SeerVariants() []Variant {
	base := core.DefaultOptions()
	off := base
	off.TxLocks, off.CoreLocks, off.HTMLockAcq, off.HillClimb = false, false, false, false

	tx := off
	tx.TxLocks = true

	txCore := tx
	txCore.CoreLocks = true

	txCoreCAS := txCore
	txCoreCAS.HTMLockAcq = true

	full := txCoreCAS
	full.HillClimb = true

	coreOnly := off
	coreOnly.CoreLocks = true

	return []Variant{
		{"profile-only", off},
		{"+tx-locks", tx},
		{"+core-locks", txCore},
		{"+htm-locks", txCoreCAS},
		{"+hill-climbing", full},
		{"core-locks-only", coreOnly},
	}
}
