package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"

	"seer"
	"seer/internal/core"
)

// The paper's own exhibits: Figures 3–5, Table 3 and the §5.2 statistic.

// Fig3Policies are the approaches compared in Figure 3.
var Fig3Policies = []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer}

// AllPolicies adds the extension baselines (ATS and the simulator-only
// Oracle) to the paper's four.
var AllPolicies = []seer.PolicyKind{
	seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM,
	seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer,
}

// Fig3Threads is the thread axis of Figures 3 and 4.
var Fig3Threads = []int{1, 2, 3, 4, 5, 6, 7, 8}

// Table3Threads is the thread axis of Table 3 and Figure 5.
var Table3Threads = []int{2, 4, 6, 8}

// sequential is the per-row reference of the speedup figures: the
// uninstrumented single-thread run.
var sequential = point{"seq", func(sp *Spec) { sp.Policy, sp.Threads = seer.PolicySeq, 1 }}

// speedupFigure is Figure 3's sweep — speedup over the sequential run
// for every workload, policy and thread count, plus the geometric mean
// (Figure 3i) — over an explicit workload and policy set.
func speedupFigure(name string, opt Options, a Args, rows []string, pols []seer.PolicyKind) (Output, error) {
	return seriesSpec{
		rows: rows, cols: policyPoints(pols), xs: threadPoints(Fig3Threads),
		ref: sequential, refPerRow: true,
		style: seriesStyle{
			panel: "\nFigure 3: %s — speedup vs sequential\n      ",
			geo:   "\nFigure 3i: geometric mean across %d benchmarks\n      ",
			label: "%-6[2]s", x: " %5st", val: " %6.2f",
			csvTag: "fig3", csvCol: "policy", csvVal: "speedup",
		},
		charts: a.Plot,
	}.run(name, opt, a.Progress)
}

// fig3 reproduces Figure 3.
func fig3(opt Options, a Args) (Output, error) {
	pols := Fig3Policies
	if a.AllPolicies {
		pols = AllPolicies
	}
	return speedupFigure("fig3", opt, a, a.rows(), pols)
}

// fullSuite is Figure 3 restricted to the opt-in workloads, over the
// full policy set — the bayes/labyrinth companion to fig3.
func fullSuite(opt Options, a Args) (Output, error) {
	a.Plot = false // the charts are fig3's alone
	return speedupFigure("fullsuite", opt, a, []string{"bayes", "labyrinth"}, AllPolicies)
}

// fig4 reproduces Figure 4: the slowdown of Seer with all monitoring,
// inference and self-tuning active but no lock ever acquired, relative to
// RTM (1.0 = free, 0.95 = 5% slower). The paper reports a mean below 5%
// and a maximum of 8%; the low-contention hashmap stays within 4%.
func fig4(opt Options, a Args) (Output, error) {
	return seriesSpec{
		rows: slices.Sorted(slices.Values(a.rows("hashmap"))),
		cols: variantPoints([]Variant{{"profile-only", core.ProfileOnly()}}),
		xs:   threadPoints(Fig3Threads),
		ref:  policyPoint(seer.PolicyRTM),
		style: seriesStyle{
			title: "\nFigure 4: Seer profiling overhead (speedup of profile-only Seer relative to RTM; 1.00 = free)\n",
			head:  fmt.Sprintf("%-14s", "workload"),
			label: "%-14[1]s", x: " %5st", val: " %6.3f",
			csvTag: "fig4", csvVal: "relative_speed",
		},
	}.run("fig4", opt, a.Progress)
}

// variantSweep is the layout Figure 5 and the ext exhibit share: Seer
// option sets over Table 3's thread axis, each normalised against the
// first variant at the same thread count.
func variantSweep(name string, opt Options, a Args, variants []Variant, style seriesStyle) (Output, error) {
	cols := variantPoints(variants)
	style.panel, style.x, style.val = "%-14s", " %6st", " %6.2f"
	return seriesSpec{
		rows: a.rows(), cols: cols, xs: threadPoints(Table3Threads),
		ref: cols[0], style: style,
	}.run(name, opt, a.Progress)
}

// fig5 reproduces Figure 5: the speedup contributed by each Seer
// mechanism, cumulatively enabled over the profile-only baseline, plus
// the core-locks-only variant of the §5.3 discussion.
func fig5(opt Options, a Args) (Output, error) {
	return variantSweep("fig5", opt, a, SeerVariants(), seriesStyle{
		title:  "\nFigure 5: cumulative contribution of Seer's mechanisms (speedup vs profile-only)\n",
		label:  "  %-16[2]s",
		csvTag: "fig5", csvCol: "variant", csvVal: "speedup_vs_profile_only",
	})
}

// Table3Data holds Table 3: the percentage of transactions committed in
// each mode, averaged across the workloads.
type Table3Data struct {
	Policies, Threads []string
	// Pct[policy][threadIdx][mode] in percent.
	Pct map[string][][seer.NumModes]float64
}

// table3 reproduces Table 3.
func table3(opt Options, a Args) (Output, error) {
	rows := a.rows()
	cols, xs := policyPoints(Fig3Policies), threadPoints(Table3Threads)
	g := newGrid(opt)
	g.cube(rows, cols, xs)
	if err := g.run("table3", a.Progress); err != nil {
		return nil, err
	}
	d := &Table3Data{Policies: labels(cols), Threads: labels(xs), Pct: map[string][][seer.NumModes]float64{}}
	for _, pol := range d.Policies {
		d.Pct[pol] = make([][seer.NumModes]float64, len(xs))
		for ti, th := range d.Threads {
			pct := &d.Pct[pol][ti]
			for _, row := range rows {
				for m, p := range g.at(row, pol, th).MeanModePct {
					pct[m] += p
				}
			}
			for m := range pct {
				pct[m] /= float64(len(rows))
			}
		}
	}
	return d, nil
}

// Render writes Table 3 as text.
func (d *Table3Data) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTable 3: transaction-mode breakdown (%% of commits, averaged across STAMP)\n")
	fmt.Fprintf(w, "%-8s %-22s", "Variant", "Transaction Mode")
	for _, th := range d.Threads {
		fmt.Fprintf(w, " %5st", th)
	}
	fmt.Fprintln(w)
	for _, pol := range d.Policies {
		for m := seer.Mode(0); m < seer.NumModes; m++ {
			// Skip rows that are identically zero for this policy.
			if !slices.ContainsFunc(d.Pct[pol], func(p [seer.NumModes]float64) bool { return p[m] >= 0.05 }) {
				continue
			}
			fmt.Fprintf(w, "%-8s %-22s", pol, m.String())
			for ti := range d.Threads {
				fmt.Fprintf(w, " %6.1f", d.Pct[pol][ti][m])
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteCSV writes Table 3 percentages, one record per
// (policy, threads, mode).
func (d *Table3Data) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"exhibit", "policy", "threads", "mode", "percent"})
	for _, pol := range d.Policies {
		for ti, th := range d.Threads {
			for m := seer.Mode(0); m < seer.NumModes; m++ {
				cw.Write([]string{"table3", pol, th, m.String(), formatFloat(d.Pct[pol][ti][m])})
			}
		}
	}
	cw.Flush()
	return cw.Error() // reports the first failed Write, too
}

// LockFracRow is one workload's §5.2 fine-granularity statistic.
type LockFracRow struct {
	Workload   string
	MedianFrac float64
	AcqEvents  uint64
	SGLPct     float64
}

// LockFracData holds the §5.2 statistic per workload, sorted by name.
type LockFracData struct{ Rows []LockFracRow }

// lockFrac measures, per workload under Seer at 8 threads, the median
// fraction of transaction locks acquired when any are (§5.2 reports <23%
// in half the cases) and the SGL usage.
func lockFrac(opt Options, a Args) (Output, error) {
	rows := slices.Sorted(slices.Values(a.rows()))
	g := newGrid(opt)
	stock := policyPoint(seer.PolicySeer)
	g.cube(rows, []point{stock}, fullMachine)
	if err := g.run("lockfrac", a.Progress); err != nil {
		return nil, err
	}
	d := &LockFracData{}
	for _, row := range rows {
		reports := g.at8(row, stock.label).Reports
		e := LockFracRow{Workload: row}
		for _, rep := range reports {
			if rep.Seer != nil {
				e.MedianFrac += rep.Seer.LockFracMedian
				e.AcqEvents += rep.Seer.LockAcqEvents
			}
			e.SGLPct += rep.ModeFractions()[seer.ModeSGL]
		}
		e.MedianFrac /= float64(len(reports))
		e.SGLPct /= float64(len(reports))
		d.Rows = append(d.Rows, e)
	}
	return d, nil
}

// Render writes the lock-fraction summary as text.
func (d *LockFracData) Render(w io.Writer) {
	fmt.Fprintf(w, "\n§5.2: tx-lock granularity at 8 threads\n")
	fmt.Fprintf(w, "%-14s %12s %12s %8s\n", "workload", "medianFrac", "acqEvents", "SGL%")
	for _, e := range d.Rows {
		fmt.Fprintf(w, "%-14s %12.2f %12d %8.2f\n", e.Workload, e.MedianFrac, e.AcqEvents, e.SGLPct)
	}
}
