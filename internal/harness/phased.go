package harness

import (
	"fmt"
	"io"

	"seer"
	"seer/internal/stamp"
)

// The phased exhibit compares the phased runtime ("PhTM") against blind
// retry (RTM), serializing contention management (SCM) and the learned
// scheduler (Seer) across the STAMP suite plus a capacity-bound
// microbenchmark whose every atomic block overflows the hardware write
// budget. On the suite the phased runtime should track RTM (the mode
// word stays in HW); on the capacity-bound workload HTM-only policies
// serialize the machine through the single global lock, while PhTM
// commits the disjoint footprints concurrently on its software path —
// the PhTM-Star argument, visible as a lower SGL share and higher
// throughput.

// PhasedWorkloads is the exhibit's workload axis: the paper suite plus
// the capacity-bound microbenchmark.
var PhasedWorkloads = append(append([]string{}, stamp.Suite...), "capbound")

// PhasedPolicies spans blind retry, serializing CM, the learned
// scheduler, and the phased runtime.
var PhasedPolicies = []seer.PolicyKind{
	seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer, seer.PolicyPhased,
}

// PhasedData holds the exhibit: the (workload × policy) throughput
// matrix, whose per-cell reports carry the global-lock and software-mode
// commit shares and the PhTM cell's runtime digest.
type PhasedData struct{ *Matrix }

// phased runs the (workload × policy) matrix at 8 threads.
func phased(opt Options, a Args) (Output, error) {
	rows := a.Workloads
	if rows == nil {
		rows = PhasedWorkloads
	}
	g := newGrid(opt)
	g.cube(rows, policyPoints(PhasedPolicies), fullMachine)
	if err := g.run("phased", a.Progress); err != nil {
		return nil, err
	}
	return &PhasedData{reduceMatrix(g, "\nPhased TM: throughput (commits/kcycle) at 8 threads",
		"workload", rows, PhasedPolicies)}, nil
}

// Render writes the throughput, speedup, and serialization tables plus
// the PhTM mode-word digest per workload.
func (d *PhasedData) Render(w io.Writer) {
	d.Matrix.Render(w)

	sgl := make([][]float64, len(d.Rows))
	for r, reports := range d.Last {
		for _, rep := range reports {
			sgl[r] = append(sgl[r], rep.ModeFractions()[seer.ModeSGL])
		}
	}
	d.table(w, "\nGlobal-lock serialization: % of commits through the SGL", sgl, false)

	fmt.Fprintf(w, "\nPhTM mode-word digest per workload\n")
	for r, name := range d.Rows {
		rep := d.Last[r][d.col(seer.PolicyPhased)]
		pr := rep.Phased
		occ := pr.ModeFractions()
		fmt.Fprintf(w, "%-14s sw-commits=%5.1f%% deferrals=%d undeferrals=%d transitions=%d occupancy hw=%.1f%% sw=%.1f%% glock=%.1f%%\n",
			name, rep.ModeFractions()[seer.ModeSTM], pr.Deferrals, pr.Undeferrals, pr.Transitions,
			occ[0], occ[1], occ[2])
	}
}
