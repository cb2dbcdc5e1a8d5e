package harness

import (
	"fmt"
	"io"

	"seer"

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

// AdversarialData holds the exhibit: the (graph × policy) throughput
// matrix plus the phase-shift trajectories on adv-phase — Seer's
// inference quality and Backoff's interval throughput across the
// conflict-graph flip.
type AdversarialData struct {
	*Matrix
	Interval     uint64
	SeerPhase    seer.Report
	BackoffPhase seer.Report
}

// adversarial runs the (graph × policy) matrix plus the two phase-shift
// timeline cells, in one grid so a single -parallel pool covers
// everything. The timeline cells run once at 4x the grid scale with a
// fine default interval (1<<12 cycles when a.Interval is 0) so the
// trajectory spans many snapshots on both sides of the flip even at
// exhibit scales.
func adversarial(opt Options, a Args) (Output, error) {
	rows := a.Workloads
	if rows == nil {
		rows = AdversarialGraphs
	}
	interval := a.Interval
	if interval == 0 {
		interval = 1 << 12
	}
	phase := func(pol seer.PolicyKind) point {
		return point{string(pol) + "@phase", func(sp *Spec) {
			sp.Policy, sp.Scale, sp.Runs = pol, sp.Scale*4, 1
			sp.MetricsInterval, sp.Inference = interval, pol == seer.PolicySeer
		}}
	}
	seerPhase, backoffPhase := phase(seer.PolicySeer), phase(seer.PolicyBackoff)
	g := newGrid(opt)
	g.cube(rows, policyPoints(AdversarialPolicies), fullMachine)
	g.cube([]string{"adv-phase"}, []point{seerPhase, backoffPhase}, fullMachine)
	if err := g.run("adversarial", a.Progress); err != nil {
		return nil, err
	}
	return &AdversarialData{
		Matrix: reduceMatrix(g, "\nAdversarial conflict graphs: throughput (commits/kcycle) at 8 threads",
			"graph", rows, AdversarialPolicies),
		Interval:     interval,
		SeerPhase:    g.at8("adv-phase", seerPhase.label).Reports[0],
		BackoffPhase: g.at8("adv-phase", backoffPhase.label).Reports[0],
	}, nil
}

// RenderQuality writes the precision and recall sparklines of an
// inference-quality trajectory (snaps must not be empty).
func RenderQuality(w io.Writer, snaps []seer.InferenceSnapshot) {
	const width = 48
	prec := make([]float64, len(snaps))
	rec := make([]float64, len(snaps))
	for i, q := range snaps {
		prec[i], rec[i] = q.Precision, q.Recall
	}
	fin := snaps[len(snaps)-1]
	fmt.Fprintf(w, "  precision   %s  [final %.3f]\n", Sparkline(prec, width), fin.Precision)
	fmt.Fprintf(w, "  recall      %s  [final %.3f]\n", Sparkline(rec, width), fin.Recall)
}

// renderBackoff writes the backoff counters of a run under the Backoff
// policy.
func renderBackoff(w io.Writer, lead string, br *seer.BackoffReport) {
	fmt.Fprintf(w, "%s waits=%d cycles=%d maxwindow=%d\n", lead, br.Waits, br.Cycles, br.MaxWindow)
}

// Render writes the throughput and RTM-normalized tables, the backoff
// counters, and the phase-shift timeline.
func (d *AdversarialData) Render(w io.Writer) {
	d.Matrix.Render(w)

	fmt.Fprintf(w, "\nBackoff window dynamics per graph\n")
	for g, name := range d.Rows {
		renderBackoff(w, fmt.Sprintf("%-14s", name), d.Last[g][d.col(seer.PolicyBackoff)].Backoff)
	}

	fmt.Fprintf(w, "\nPhase shift (adv-phase): conflict graph flips at the midpoint (interval = %d cycles)\n", d.Interval)
	if snaps := d.SeerPhase.Inference; len(snaps) > 0 {
		fmt.Fprintf(w, "Seer scheme quality across the flip (%d snapshots)\n", len(snaps))
		RenderQuality(w, snaps)
	}
	if tl := d.BackoffPhase.Timeline; len(tl) > 0 {
		vals := make([]float64, len(tl))
		for i, s := range tl {
			vals[i] = s.Throughput()
		}
		fmt.Fprintf(w, "Backoff interval throughput across the flip (%d intervals)\n", len(tl))
		fmt.Fprintf(w, "  commits/kc  %s\n", Sparkline(vals, 48))
		renderBackoff(w, "  backoff", d.BackoffPhase.Backoff)
	}
}
