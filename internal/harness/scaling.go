package harness

import (
	"fmt"
	"io"

	"seer"
)

// The scaling exhibit is not a paper figure: the paper's testbed stops at
// one 4-core/8-thread socket, and its Figure 3 curves stop with it. This
// exhibit asks what the reproduced policies do when the machine itself
// grows — it sweeps the topology axis from the paper's socket up to a
// 4-socket, 64-core, 128-thread machine, running every worker the shape
// admits. It exists to exercise the first-class topology model end to
// end: multi-word scheduler masks, reader sets past 64 ids, per-core
// capacity sharing at high thread ids, and the cross-socket access
// penalty on the memory hot path.

// ScalingShapes is the topology axis of the scaling exhibit: the paper's
// 8-thread socket, then doubling through 2 and 4 sockets to 128 threads.
var ScalingShapes = []seer.Topology{
	{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 2},  // 1s4c2t: the paper's testbed
	{Sockets: 1, CoresPerSocket: 8, ThreadsPerCore: 2},  // 1s8c2t: 16 threads
	{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2},  // 2s8c2t: 32 threads
	{Sockets: 2, CoresPerSocket: 16, ThreadsPerCore: 2}, // 2s16c2t: 64 threads
	{Sockets: 4, CoresPerSocket: 16, ThreadsPerCore: 2}, // 4s16c2t: 128 threads
}

// ScalingPolicies are the policies compared across shapes: the hardware
// retry baseline and the paper's scheduler.
var ScalingPolicies = []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer}

// ScalingRemotePenalty is the per-access cycle surcharge used by the
// exhibit's NUMA sensitivity rows: every load or store to a cache line
// homed on another socket costs this much extra (see
// seer.Config.RemoteAccessCost). Against the calibrated 2-cycle load /
// 3-cycle store this triples the cost of a remote access — about the
// local-to-remote latency ratio of a real multi-socket machine.
const ScalingRemotePenalty = 4

// ScalingData is the scaling sweep — speedup over the sequential run,
// [workload][policy][shapeIdx] — plus the NUMA sensitivity column.
type ScalingData struct {
	*Series
	// RemoteSpeedup[workload] is Seer at the largest shape with
	// ScalingRemotePenalty charged on cross-socket accesses; compare with
	// Value[workload]["Seer"] at the last shape for the NUMA cost.
	RemoteSpeedup map[string]float64
}

// shapePoint is a machine shape as an x position, run with as many
// workers as it has hardware threads; labelled e.g. "2s8c2t(32)".
func shapePoint(t seer.Topology) point {
	return point{fmt.Sprintf("%s(%d)", t, t.Threads()), func(sp *Spec) {
		sp.Threads, sp.Topology = t.Threads(), t
	}}
}

// scaling runs every workload under ScalingPolicies across
// ScalingShapes, with as many workers as each shape has hardware
// threads, and reports speedup over the sequential baseline. A final
// per-workload cell reruns Seer on the largest shape with the
// cross-socket access penalty enabled.
func scaling(opt Options, a Args) (Output, error) {
	// The shape axis is the experiment; a global -topology override would
	// silently turn the sweep into one repeated shape.
	opt.Topology = seer.Topology{}
	xs := make([]point, len(ScalingShapes))
	for i, shape := range ScalingShapes {
		xs[i] = shapePoint(shape)
	}
	sweep := seriesSpec{
		rows: opt.rows(a.Workloads), cols: policyPoints(ScalingPolicies), xs: xs,
		ref: sequential, refPerRow: true,
		style: seriesStyle{
			title: "\nscaling: speedup vs sequential across machine shapes (workers = hardware threads)\n",
			head:  fmt.Sprintf("%-14s %-6s", "workload", "policy"),
			label: "%-14s %-6s", x: " %12s", val: " %12.2f",
		},
	}
	largest := xs[len(xs)-1]
	remote := point{"Seer+remote", func(sp *Spec) {
		sp.Policy, sp.RemoteAccessCost = seer.PolicySeer, ScalingRemotePenalty
	}}
	g := newGrid(opt)
	sweep.addTo(g)
	g.cube(sweep.rows, []point{remote}, []point{largest})
	if err := g.run("scaling", a.Progress); err != nil {
		return nil, err
	}
	d := &ScalingData{Series: sweep.reduce(g), RemoteSpeedup: map[string]float64{}}
	for _, wl := range sweep.rows {
		seq := sweep.refCell(g, wl, largest).MeanMakespan
		d.RemoteSpeedup[wl] = Speedup(seq, g.at(wl, remote.label, largest.label))
	}
	return d, nil
}

// Render writes the scaling tables as text.
func (d *ScalingData) Render(w io.Writer) {
	d.Series.Render(w)
	last := len(d.Xs) - 1
	fmt.Fprintf(w, "\nNUMA sensitivity: seer at %s with a %d-cycle cross-socket access penalty\n",
		d.Xs[last], ScalingRemotePenalty)
	fmt.Fprintf(w, "%-14s %12s %12s %8s\n", "workload", "uniform", "penalized", "ratio")
	for _, wl := range d.Rows {
		uniform := d.Value[wl][string(seer.PolicySeer)][last]
		penalized := d.RemoteSpeedup[wl]
		ratio := 0.0
		if uniform > 0 {
			ratio = penalized / uniform
		}
		fmt.Fprintf(w, "%-14s %12.2f %12.2f %8.2f\n", wl, uniform, penalized, ratio)
	}
}
