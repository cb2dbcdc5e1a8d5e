package main

import (
	"fmt"

	"seer"
	"seer/internal/adversary"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// cellSpec is one grid cell: a workload run under one policy on one
// machine shape. The workload it belongs to supplies scale and
// observability settings.
type cellSpec struct {
	Workload string
	Policy   seer.PolicyKind
	Threads  int
	// Topo pins the machine shape; zero is the harness default, the
	// paper's 8-thread 1s4c2t testbed.
	Topo seer.Topology
}

func (c cellSpec) String() string {
	shape := "1s4c2t"
	if !c.Topo.IsZero() {
		shape = c.Topo.String()
	}
	return fmt.Sprintf("%s/%s/%s/%dt", c.Workload, c.Policy, shape, c.Threads)
}

// workload is one fixed set of cells. Sizes are constants: the exact
// work counts and the golden digests depend on them, so nothing here is
// calibrated to a time budget.
type workload struct {
	Name  string
	Why   string
	Scale float64
	// Obs turns on all three observability layers (telemetry timeline,
	// event log, attempt spans) through public seer.Config fields.
	Obs   bool
	Cells []cellSpec
}

// Observability settings of the infer-obs workload.
const (
	obsMetricsInterval = 4096
	obsTraceEvents     = 4096
)

// benchGraphOps is the operation count of the two 32-block graphs at
// scale 1 (the adv-* graphs of internal/adversary use 6400).
const benchGraphOps = 3200

func init() {
	// The largest graphs internal/adversary admits (32 blocks): Seer's
	// statistics matrices and scheme update are quadratic in the block
	// count, so these are where inference cost is visible.
	reg := func(name string, g adversary.Graph) {
		stamp.Register(name, func(scale float64) stamp.Workload {
			return adversary.New(g, max(64, int(benchGraphOps*scale)))
		})
	}
	reg("bench-clique32", adversary.Clique(32))
	reg("bench-bipartite32", adversary.Bipartite(16, 16))
}

var (
	shape32  = seer.Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2}
	shape128 = seer.Topology{Sockets: 4, CoresPerSocket: 16, ThreadsPerCore: 2}
)

// grid crosses workloads × policies × threads on the default testbed,
// workload-major like the harness exhibits.
func grid(names []string, pols []seer.PolicyKind, threads []int) []cellSpec {
	var out []cellSpec
	for _, n := range names {
		for _, p := range pols {
			for _, t := range threads {
				out = append(out, cellSpec{Workload: n, Policy: p, Threads: t})
			}
		}
	}
	return out
}

var workloads = buildWorkloads()

func buildWorkloads() []workload {
	suite := stamp.Suite
	t8 := []int{harness.MachineHWThreads}

	suite8 := grid(suite, []seer.PolicyKind{seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer}, []int{2, 4, 8})
	suite8 = append(suite8, grid([]string{"capbound"}, []seer.PolicyKind{seer.PolicyRTM, seer.PolicyPhased}, t8)...)

	var wide []cellSpec
	for _, n := range suite {
		for _, p := range harness.ScalingPolicies {
			for _, shape := range []seer.Topology{shape32, shape128} {
				wide = append(wide, cellSpec{Workload: n, Policy: p, Threads: shape.Threads(), Topo: shape})
			}
		}
	}

	convoy := grid(suite, []seer.PolicyKind{seer.PolicyHLE, seer.PolicySCM, seer.PolicyATS}, t8)
	convoy = append(convoy, cellSpec{Workload: "capbound", Policy: seer.PolicyRTM, Threads: 8})

	inferNames := append(append([]string{}, suite...),
		"adv-ring", "adv-star", "adv-bipartite", "adv-clique", "adv-phase",
		"bench-clique32", "bench-bipartite32")
	infer := grid(inferNames, []seer.PolicyKind{seer.PolicySeer}, t8)

	return []workload{
		{
			Name:  "suite-8t",
			Why:   "the Fig. 3/Table 3 grid every exhibit regeneration pays for: HTM attempt path, transaction bodies and the narrow-machine tick fast path",
			Scale: 1.0, Cells: suite8,
		},
		{
			Name:  "wide-128t",
			Why:   "32- and 128-thread shapes: hierarchical event queue, speculative quanta, sharded registry and per-thread context construction do the work",
			Scale: 0.6, Cells: wide,
		},
		{
			Name:  "convoy-8t",
			Why:   "lock convoys (HLE/SCM/ATS, 100% SGL capbound): progress flows through spinlock park/wake/acquire and mem.Direct, not ticks and quanta",
			Scale: 2.5, Cells: convoy,
		},
		{
			Name:  "infer-obs",
			Why:   "Seer inference up to 32 blocks with telemetry, event log and attempt spans all on: the only workload where core/stats/observability cost shows",
			Scale: 2.5, Obs: true, Cells: infer,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
