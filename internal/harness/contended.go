package harness

import (
	"fmt"
	"io"

	"seer"
)

// The contended exhibit is not a paper figure: it is a stress view of the
// single-global-lock path under maximal contention, added alongside the
// event-driven lock parking work. HLE at 8 threads issues one hardware
// attempt per transaction and then serializes everything through the SGL,
// so nearly all progress flows through the spinlock park/wake machinery.
// The table reports how much virtual lock-wait time each workload spends
// and what fraction of it the engine fast-forwarded instead of simulating
// poll by poll.

// ContendedRow is one workload's row of the contended-SGL exhibit,
// averaged over repetitions.
type ContendedRow struct {
	Workload       string
	MakespanCycles uint64
	SGLPct         float64
	LockWaitCycles uint64
	ParkSkipped    uint64
}

// ContendedData holds the contended-SGL stress results per workload.
type ContendedData struct{ Rows []ContendedRow }

// contendedInterval is the telemetry period used to total lock-wait and
// park-skip cycles; coarse on purpose, the exhibit only needs the sums.
const contendedInterval = 1 << 16

// contended runs every workload under HLE at 8 threads — the maximally
// contended configuration — and reports SGL usage, lock-wait cycles and
// the parked (fast-forwarded) share of that wait.
func contended(opt Options, a Args) (Output, error) {
	rows := a.rows()
	hle := point{string(seer.PolicyHLE), func(sp *Spec) {
		sp.Policy, sp.MetricsInterval = seer.PolicyHLE, contendedInterval
	}}
	g := newGrid(opt)
	g.cube(rows, []point{hle}, fullMachine)
	if err := g.run("contended", a.Progress); err != nil {
		return nil, err
	}
	d := &ContendedData{}
	for _, wl := range rows {
		reports := g.at8(wl, hle.label).Reports
		row := ContendedRow{Workload: wl}
		for _, rep := range reports {
			row.MakespanCycles += rep.MakespanCycles
			row.SGLPct += rep.ModeFractions()[seer.ModeSGL]
			for _, snap := range rep.Timeline {
				row.LockWaitCycles += snap.LockWait
				row.ParkSkipped += snap.ParkSkipped
			}
		}
		n := uint64(len(reports))
		row.MakespanCycles /= n
		row.SGLPct /= float64(n)
		row.LockWaitCycles /= n
		row.ParkSkipped /= n
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Render writes the contended-SGL table as text.
func (d *ContendedData) Render(w io.Writer) {
	fmt.Fprintf(w, "\ncontended SGL stress: HLE at 8 threads\n")
	fmt.Fprintf(w, "%-14s %14s %8s %14s %14s %8s\n",
		"workload", "makespan", "SGL%", "lockWait", "parkSkipped", "skip%")
	for _, r := range d.Rows {
		skipPct := 0.0
		if r.LockWaitCycles > 0 {
			skipPct = 100 * float64(r.ParkSkipped) / float64(r.LockWaitCycles)
		}
		fmt.Fprintf(w, "%-14s %14d %8.2f %14d %14d %8.2f\n",
			r.Workload, r.MakespanCycles, r.SGLPct, r.LockWaitCycles, r.ParkSkipped, skipPct)
	}
}
