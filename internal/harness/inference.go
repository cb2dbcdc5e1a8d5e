package harness

import (
	"fmt"
	"io"

	"seer"
)

// The inference exhibit is the measurement the paper's authors could not
// produce on real TSX hardware: because the simulator knows the ground
// truth of every conflict abort (which line, which aborter, which block
// pair), it can score the locking scheme Seer infers from imprecise
// commit/abort statistics directly against the true conflict graph —
// precision, recall and rank divergence as functions of virtual time.

// InferenceData holds the inference exhibit: one Seer run per workload
// with the attribution counters on.
type InferenceData TimelineData

// inference runs each workload once under Seer at 8 threads with the
// attribution counters on and collects the quality trajectories.
func inference(opt Options, a Args) (Output, error) {
	d, err := observe("inference", opt, a, []seer.PolicyKind{seer.PolicySeer}, true)
	if err != nil {
		return nil, err
	}
	return (*InferenceData)(d), nil
}

// Render writes one block per workload: precision/recall sparklines over
// virtual time plus the final quality figures.
func (d *InferenceData) Render(w io.Writer) {
	fmt.Fprintf(w, "\nInference quality: Seer's learned locks vs. ground-truth conflicts (interval = %d cycles, 8 threads)\n", d.Interval)
	for _, e := range d.Entries {
		snaps := e.Report.Inference
		if len(snaps) == 0 {
			fmt.Fprintf(w, "%-14s no snapshots\n", e.Workload)
			continue
		}
		fin := snaps[len(snaps)-1]
		fmt.Fprintf(w, "%s: %d snapshots, %d attributed aborts\n", e.Workload, len(snaps), fin.Attributed)
		RenderQuality(w, snaps)
		fmt.Fprintf(w, "  final: true=%d predicted=%d tp=%d rank-divergence=%.3f\n",
			fin.TruePairs, fin.PredictedPairs, fin.TP, fin.RankDivergence)
	}
}
