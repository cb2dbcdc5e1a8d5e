package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"

	"seer"
	"seer/internal/telemetry"
)

// The timeline exhibit goes beyond the paper's end-of-run aggregates: it
// records how throughput, the abort mix and Seer's control state (Θ₁/Θ₂,
// locking-scheme size) evolve over virtual time within a run, which is
// the signal the self-tuning machinery actually acts on.

// DefaultMetricsInterval is the snapshot period used when the caller
// passes 0: coarse enough to keep timelines small at scale 1, fine
// enough to resolve the hill climber's epochs.
const DefaultMetricsInterval uint64 = 1 << 16

// TimelineEntry is the timeline of one (workload, policy) run.
type TimelineEntry struct {
	Workload string
	Policy   seer.PolicyKind
	Report   seer.Report
}

// TimelineData holds the timeline exhibit.
type TimelineData struct {
	Interval uint64
	Entries  []TimelineEntry
}

// observe runs each (workload × policy) cell once at 8 threads with
// interval metrics on — plus, with inference set, the abort-attribution
// counters — and collects the reports in row-major order. An a.Interval
// of 0 selects DefaultMetricsInterval.
func observe(name string, opt Options, a Args, pols []seer.PolicyKind, inference bool) (*TimelineData, error) {
	d := &TimelineData{Interval: a.Interval}
	if d.Interval == 0 {
		d.Interval = DefaultMetricsInterval
	}
	rows := a.rows()
	cols := make([]point, len(pols))
	for i, pol := range pols {
		cols[i] = point{string(pol), func(sp *Spec) {
			sp.Policy, sp.Runs = pol, 1
			sp.MetricsInterval, sp.Inference = d.Interval, inference
		}}
	}
	g := newGrid(opt)
	g.cube(rows, cols, fullMachine)
	if err := g.run(name, a.Progress); err != nil {
		return nil, err
	}
	for _, wl := range rows {
		for i, pol := range pols {
			d.Entries = append(d.Entries, TimelineEntry{wl, pol, g.at8(wl, cols[i].label).Reports[0]})
		}
	}
	return d, nil
}

// timelines records the per-interval series of RTM and Seer on every
// workload.
func timelines(opt Options, a Args) (Output, error) {
	d, err := observe("timeline", opt, a, []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer}, false)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Render writes one sparkline block per entry.
func (d *TimelineData) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTimelines: per-interval dynamics (interval = %d cycles, 8 threads)\n", d.Interval)
	for _, e := range d.Entries {
		RenderTimeline(w, fmt.Sprintf("%s/%s", e.Workload, e.Policy), e.Report.Timeline)
	}
}

// RenderTimeline writes a compact sparkline view of one timeline: the
// per-interval throughput and abort rate, and — when the Seer scheduler
// ran — the Θ₁/Θ₂ trajectory and the locking scheme's pair count.
func RenderTimeline(w io.Writer, title string, snaps []seer.Snapshot) {
	const width = 64
	if len(snaps) == 0 {
		fmt.Fprintf(w, "%s: no timeline (MetricsInterval disabled?)\n", title)
		return
	}
	thr := make([]float64, len(snaps))
	abr := make([]float64, len(snaps))
	th1 := make([]float64, len(snaps))
	th2 := make([]float64, len(snaps))
	pairs := make([]float64, len(snaps))
	var thrMin, thrMax float64
	seerRun := false
	for i, s := range snaps {
		thr[i] = s.Throughput()
		abr[i] = s.AbortRate()
		th1[i] = s.Th1
		th2[i] = s.Th2
		pairs[i] = float64(s.SchemePairs)
		if i == 0 || thr[i] < thrMin {
			thrMin = thr[i]
		}
		if thr[i] > thrMax {
			thrMax = thr[i]
		}
		if s.Th1 != 0 || s.Th2 != 0 || s.SchemePairs != 0 {
			seerRun = true
		}
	}
	fmt.Fprintf(w, "%s: %d intervals\n", title, len(snaps))
	fmt.Fprintf(w, "  throughput  %s  [%.3f..%.3f commits/kcycle]\n", Sparkline(thr, width), thrMin, thrMax)
	fmt.Fprintf(w, "  abort rate  %s  [last %.2f]\n", Sparkline(abr, width), abr[len(abr)-1])
	if seerRun {
		fmt.Fprintf(w, "  Θ1 walk     %s  [%.3f → %.3f]\n", Sparkline(th1, width), th1[0], th1[len(th1)-1])
		fmt.Fprintf(w, "  Θ2 walk     %s  [%.3f → %.3f]\n", Sparkline(th2, width), th2[0], th2[len(th2)-1])
		fmt.Fprintf(w, "  scheme prs  %s  [last %.0f]\n", Sparkline(pairs, width), pairs[len(pairs)-1])
	}
}

// sparks are the eight-level bar glyphs used by Sparkline.
var sparks = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// Sparkline renders vals as a one-line bar chart of at most width glyphs,
// scaled to the series' own min..max. Series longer than width are
// bucketed by averaging consecutive values, so long timelines compress to
// a fixed-width overview. An empty series yields an empty string.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 || width <= 0 {
		return ""
	}
	if len(vals) > width {
		vals = bucket(vals, width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		level := 0
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(sparks)-1))
		}
		if level < 0 {
			level = 0
		}
		if level > len(sparks)-1 {
			level = len(sparks) - 1
		}
		out[i] = sparks[level]
	}
	return string(out)
}

// bucket averages vals down to n entries.
func bucket(vals []float64, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := i * len(vals) / n
		end := (i + 1) * len(vals) / n
		if end <= start {
			end = start + 1
		}
		sum := 0.0
		for _, v := range vals[start:end] {
			sum += v
		}
		out[i] = sum / float64(end-start)
	}
	return out
}

// WriteCSV writes the exhibit as CSV, one row per (workload, policy,
// interval), prefixed with the shared "exhibit" column so it can share a
// file with the other exhibits.
func (d *TimelineData) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cw.Write(append([]string{"exhibit", "workload", "policy"}, telemetry.CSVHeader()...))
	for _, e := range d.Entries {
		for _, s := range e.Report.Timeline {
			cw.Write(append([]string{"timeline", e.Workload, string(e.Policy)}, telemetry.CSVRecord(s)...))
		}
	}
	cw.Flush()
	return cw.Error() // reports the first failed Write, too
}
