package harness

import (
	"fmt"
	"io"
	"strconv"

	"seer"
	"seer/internal/bench"
)

// AttemptsData holds the retry-budget ablation: the paper adopts Intel's
// recommended 5 hardware attempts for STAMP; this experiment sweeps the
// budget to show how sensitive each policy is to it.
type AttemptsData struct {
	Policies, Budgets []string
	// Throughput[policy][budgetIdx] is the geomean commits/kcycle
	// across the workloads at 8 threads.
	Throughput map[string][]float64
}

// AttemptBudgets is the swept axis.
var AttemptBudgets = []int{1, 2, 3, 5, 8, 12}

// attempts sweeps the hardware retry budget at 8 threads.
func attempts(opt Options, a Args) (Output, error) {
	rows := a.rows()
	cols := policyPoints([]seer.PolicyKind{seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer})
	xs := make([]point, len(AttemptBudgets))
	for i, budget := range AttemptBudgets {
		xs[i] = point{strconv.Itoa(budget), func(sp *Spec) { sp.Threads, sp.MaxAttempts = MachineHWThreads, budget }}
	}
	g := newGrid(opt)
	g.cube(rows, cols, xs)
	if err := g.run("attempts", a.Progress); err != nil {
		return nil, err
	}
	d := &AttemptsData{Policies: labels(cols), Budgets: labels(xs), Throughput: map[string][]float64{}}
	for _, pol := range d.Policies {
		for _, budget := range d.Budgets {
			perRow := make([]float64, len(rows))
			for ri, row := range rows {
				perRow[ri] = bench.Mean(throughputs(g.at(row, pol, budget)))
			}
			d.Throughput[pol] = append(d.Throughput[pol], bench.GeoMean(perRow))
		}
	}
	return d, nil
}

// Render writes the ablation as text.
func (d *AttemptsData) Render(w io.Writer) {
	fmt.Fprintf(w, "\nRetry-budget ablation: geomean throughput (commits/kcycle) at 8 threads\n")
	fmt.Fprintf(w, "%-6s", "")
	for _, b := range d.Budgets {
		fmt.Fprintf(w, " %6s", b)
	}
	fmt.Fprintln(w)
	for _, pol := range d.Policies {
		fmt.Fprintf(w, "%-6s", pol)
		for _, v := range d.Throughput[pol] {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
}
