package harness

import (
	"fmt"
	"io"

	"seer"
	"seer/internal/bench"
	"seer/internal/plot"

	// Register the adv-* conflict-graph workloads.
	_ "seer/internal/adversary"
)

// The adversarial exhibit runs the worst-case conflict graphs of the
// transactional conflict problem (ring, star, bipartite hot-spot,
// clique, and a phase-shifting mix) under every contention-management
// approach, normalizing throughput against blind retry (RTM). The
// phase-shift timeline then shows the structural weakness of learned
// scheduling: Seer's scheme quality (precision/recall against the
// attribution ground truth) collapses when the conflict graph flips mid-run
// and recovers only as new statistics drown out the stale ones, while
// randomized backoff — which learns nothing — is unaffected.

// AdversarialGraphs is the exhibit's graph-family axis.
var AdversarialGraphs = []string{
	"adv-ring", "adv-star", "adv-bipartite", "adv-clique", "adv-phase",
}

// AdversarialPolicies spans blind retry, randomized backoff, serializing
// fall-backs, and the precise schedulers.
var AdversarialPolicies = []seer.PolicyKind{
	seer.PolicyRTM, seer.PolicyBackoff, seer.PolicySCM,
	seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer,
}

// AdversarialData holds the exhibit: absolute throughput per (graph,
// policy) cell, plus the phase-shift trajectories.
type AdversarialData struct {
	Graphs   []string
	Policies []seer.PolicyKind
	// Throughput[graphIdx][polIdx] is the trimmed-mean commits/kcycle
	// over runs at 8 threads.
	Throughput [][]float64
	// Backoff[graphIdx] is the backoff counter report of the Backoff
	// cell (nil when the policy is absent from Policies).
	Backoff []*seer.BackoffReport

	// Phase-shift timeline (adv-phase): Seer's inference quality and
	// Backoff's interval throughput across the conflict-graph flip.
	Interval     uint64
	SeerPhase    seer.Report
	BackoffPhase seer.Report
}

// Adversarial runs the (graph × policy) grid at 8 threads plus the two
// phase-shift timeline cells. The timeline cells run at 4x the grid
// scale with a fine default interval (1<<12 cycles when interval is 0)
// so the trajectory spans many snapshots on both sides of the flip even
// at exhibit scales.
func Adversarial(opt Options, workloads []string, interval uint64, progress io.Writer) (*AdversarialData, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = append([]string{}, AdversarialGraphs...)
	}
	if interval == 0 {
		interval = 1 << 12
	}
	phaseScale := opt.Scale * 4
	pols := AdversarialPolicies
	data := &AdversarialData{
		Graphs:     workloads,
		Policies:   pols,
		Throughput: make([][]float64, len(workloads)),
		Backoff:    make([]*seer.BackoffReport, len(workloads)),
		Interval:   interval,
	}
	for g := range data.Throughput {
		data.Throughput[g] = make([]float64, len(pols))
	}

	// One grid: the (graph × policy) cells followed by the two timeline
	// cells, so a single -parallel pool covers everything.
	var specs []Spec
	cells := bench.Cross(len(workloads), len(pols))
	for _, c := range cells {
		specs = append(specs, Spec{
			Workload: workloads[c[0]], Scale: opt.Scale, Policy: pols[c[1]],
			Threads: MachineHWThreads, Runs: opt.Runs, Seed: opt.Seed,
		})
	}
	seerPhaseIdx := len(specs)
	specs = append(specs, Spec{
		Workload: "adv-phase", Scale: phaseScale, Policy: seer.PolicySeer,
		Threads: MachineHWThreads, Runs: 1, Seed: opt.Seed,
		MetricsInterval: interval, Inference: true,
	})
	backoffPhaseIdx := len(specs)
	specs = append(specs, Spec{
		Workload: "adv-phase", Scale: phaseScale, Policy: seer.PolicyBackoff,
		Threads: MachineHWThreads, Runs: 1, Seed: opt.Seed,
		MetricsInterval: interval,
	})

	_, err := RunGrid(opt, specs, func(i int, res Result) {
		switch {
		case i < seerPhaseIdx:
			c := cells[i]
			vals := make([]float64, len(res.Reports))
			for r, rep := range res.Reports {
				vals[r] = rep.Throughput()
			}
			data.Throughput[c[0]][c[1]] = bench.TrimmedMean(vals, 0.2)
			if res.Spec.Policy == seer.PolicyBackoff {
				data.Backoff[c[0]] = res.Reports[len(res.Reports)-1].Backoff
			}
			if progress != nil {
				fmt.Fprintf(progress, "adversarial %-14s %-8s %.3f commits/kcycle\n",
					res.Spec.Workload, res.Spec.Policy, data.Throughput[c[0]][c[1]])
			}
		case i == seerPhaseIdx:
			data.SeerPhase = res.Reports[0]
		case i == backoffPhaseIdx:
			data.BackoffPhase = res.Reports[0]
		}
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// polIdx returns the index of pol in d.Policies, or -1.
func (d *AdversarialData) polIdx(pol seer.PolicyKind) int {
	for i, p := range d.Policies {
		if p == pol {
			return i
		}
	}
	return -1
}

// Render writes the throughput and RTM-normalized tables, the backoff
// counters, and the phase-shift timeline.
func (d *AdversarialData) Render(w io.Writer) {
	cols := make([]string, len(d.Policies))
	for i, p := range d.Policies {
		cols[i] = string(p)
	}
	abs := bench.RatioTable{
		Title:     "\nAdversarial conflict graphs: throughput (commits/kcycle) at 8 threads",
		RowHeader: "graph",
		Rows:      d.Graphs, Cols: cols, Cells: d.Throughput,
	}
	abs.Render(w)

	if base := d.polIdx(seer.PolicyRTM); base >= 0 {
		rel := make([][]float64, len(d.Graphs))
		for g := range d.Graphs {
			rel[g] = make([]float64, len(d.Policies))
			for p := range d.Policies {
				if d.Throughput[g][base] > 0 {
					rel[g][p] = d.Throughput[g][p] / d.Throughput[g][base]
				}
			}
		}
		tbl := bench.RatioTable{
			Title:     "\nSpeedup over blind retry (RTM = 1.00)",
			RowHeader: "graph",
			Rows:      d.Graphs, Cols: cols, Cells: rel,
			Geomean: true,
		}
		tbl.Render(w)
	}

	fmt.Fprintf(w, "\nBackoff window dynamics per graph\n")
	for g, name := range d.Graphs {
		if br := d.Backoff[g]; br != nil {
			fmt.Fprintf(w, "%-14s waits=%d cycles=%d maxwindow=%d\n",
				name, br.Waits, br.Cycles, br.MaxWindow)
		}
	}

	const width = 48
	fmt.Fprintf(w, "\nPhase shift (adv-phase): conflict graph flips at the midpoint (interval = %d cycles)\n", d.Interval)
	if snaps := d.SeerPhase.Inference; len(snaps) > 0 {
		prec := make([]float64, len(snaps))
		rec := make([]float64, len(snaps))
		for i, q := range snaps {
			prec[i] = q.Precision
			rec[i] = q.Recall
		}
		fin := snaps[len(snaps)-1]
		fmt.Fprintf(w, "Seer scheme quality across the flip (%d snapshots)\n", len(snaps))
		fmt.Fprintf(w, "  precision   %s  [final %.3f]\n", plot.Sparkline(prec, width), fin.Precision)
		fmt.Fprintf(w, "  recall      %s  [final %.3f]\n", plot.Sparkline(rec, width), fin.Recall)
	}
	if tl := d.BackoffPhase.Timeline; len(tl) > 0 {
		vals := make([]float64, len(tl))
		for i, s := range tl {
			vals[i] = s.Throughput()
		}
		fmt.Fprintf(w, "Backoff interval throughput across the flip (%d intervals)\n", len(tl))
		fmt.Fprintf(w, "  commits/kc  %s\n", plot.Sparkline(vals, width))
		if br := d.BackoffPhase.Backoff; br != nil {
			fmt.Fprintf(w, "  backoff waits=%d cycles=%d maxwindow=%d\n",
				br.Waits, br.Cycles, br.MaxWindow)
		}
	}
}
