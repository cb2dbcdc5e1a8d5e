package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"seer"
	"seer/internal/core"
	"seer/internal/plot"
	"seer/internal/stamp"
)

// Options configures an experiment sweep.
type Options struct {
	Scale float64
	Runs  int
	Seed  int64
	// Parallel is the worker-pool width used to fan independent grid
	// cells across real CPUs: 0 or 1 runs sequentially, N > 1 uses N
	// workers, negative uses one worker per available CPU. Results and
	// rendered output are bit-identical at any width (see RunGrid).
	Parallel int
	// Topology, when non-zero, replaces the default 8-thread testbed for
	// every grid cell that does not pin its own shape (the seerbench
	// -topology flag). Cells whose thread count exceeds the shape fail
	// with a config error rather than silently resizing.
	Topology seer.Topology
	// FullSuite widens the default workload set from stamp.Suite to
	// stamp.FullSuite (adds bayes and labyrinth) in every experiment
	// that was not given an explicit list (the seerbench -full-suite
	// flag). Explicit workload arguments are unaffected.
	FullSuite bool
	// RegistryShards sets the conflict registry's shard count for every
	// grid cell that does not pin its own (the seerbench -registry-shards
	// flag; 0 = auto by machine shape). Pure data layout: results are
	// bit-identical at any count.
	RegistryShards int
	// Quantum sets the speculative-quantum budget for every grid cell
	// that does not pin its own (the seerbench -quantum flag; 0 = library
	// default, -1 = speculation off, K > 0 = quanta of up to K pure
	// ticks). Pure engine mechanics: results are bit-identical at any
	// setting.
	Quantum int
}

// suite resolves the default workload list for experiments that were not
// handed an explicit one.
func (o Options) suite() []string {
	if o.FullSuite {
		return append([]string{}, stamp.FullSuite...)
	}
	return Suite()
}

// DefaultOptions returns full-scale settings (Figure 3 at scale 1 takes
// on the order of a minute of wall-clock time per policy).
func DefaultOptions() Options {
	return Options{Scale: 1.0, Runs: 3, Seed: 1}
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	return o
}

// Fig3Policies are the approaches compared in Figure 3.
var Fig3Policies = []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer}

// AllPolicies adds the extension baselines (ATS and the simulator-only
// Oracle) to the paper's four.
var AllPolicies = []seer.PolicyKind{
	seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM,
	seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer,
}

// Fig3Threads is the thread axis of Figure 3.
var Fig3Threads = []int{1, 2, 3, 4, 5, 6, 7, 8}

// Fig3Data holds speedups indexed [workload][policy][threadIdx].
type Fig3Data struct {
	Workloads []string
	Policies  []seer.PolicyKind
	Threads   []int
	Speedup   map[string]map[seer.PolicyKind][]float64
	// Geomean aggregates across workloads: [policy][threadIdx].
	Geomean map[seer.PolicyKind][]float64
}

// Fig3 reproduces Figure 3: speedup over the sequential uninstrumented
// run for every benchmark, policy and thread count, plus the geometric
// mean (Figure 3i).
func Fig3(opt Options, workloads []string, progress io.Writer) (*Fig3Data, error) {
	return Fig3With(opt, workloads, Fig3Policies, progress)
}

// Fig3With is Fig3 over an explicit policy set (e.g. AllPolicies, to
// include the ATS and Oracle baselines).
func Fig3With(opt Options, workloads []string, policies []seer.PolicyKind, progress io.Writer) (*Fig3Data, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = opt.suite()
	}
	if policies == nil {
		policies = Fig3Policies
	}
	data := &Fig3Data{
		Workloads: workloads,
		Policies:  policies,
		Threads:   Fig3Threads,
		Speedup:   map[string]map[seer.PolicyKind][]float64{},
		Geomean:   map[seer.PolicyKind][]float64{},
	}
	// Grid: per workload, one sequential-baseline cell followed by the
	// (policy × threads) cells. The ordered progress callback sees the
	// baseline before any cell that divides by it.
	type cell struct {
		wl  string
		pol seer.PolicyKind
		ti  int // thread index; -1 marks the baseline cell
	}
	var specs []Spec
	var cells []cell
	for _, wl := range workloads {
		specs = append(specs, Spec{
			Workload: wl, Scale: opt.Scale,
			Policy: seer.PolicySeq, Threads: 1, Runs: opt.Runs, Seed: opt.Seed,
		})
		cells = append(cells, cell{wl: wl, ti: -1})
		for _, pol := range policies {
			for ti, th := range Fig3Threads {
				specs = append(specs, Spec{
					Workload: wl, Scale: opt.Scale, Policy: pol,
					Threads: th, Runs: opt.Runs, Seed: opt.Seed,
				})
				cells = append(cells, cell{wl: wl, pol: pol, ti: ti})
			}
		}
	}
	baselines := map[string]float64{}
	_, err := RunGrid(opt, specs, func(i int, res Result) {
		c := cells[i]
		if c.ti < 0 {
			baselines[c.wl] = res.MeanMakespan
			data.Speedup[c.wl] = map[seer.PolicyKind][]float64{}
			return
		}
		if c.ti == 0 {
			data.Speedup[c.wl][c.pol] = make([]float64, len(Fig3Threads))
		}
		data.Speedup[c.wl][c.pol][c.ti] = Speedup(baselines[c.wl], res)
		if c.ti == len(Fig3Threads)-1 && progress != nil {
			fmt.Fprintf(progress, "fig3 %-14s %-5s %v\n", c.wl, c.pol, fmtSeries(data.Speedup[c.wl][c.pol]))
		}
	})
	if err != nil {
		return nil, err
	}
	for _, pol := range policies {
		gm := make([]float64, len(Fig3Threads))
		for ti := range Fig3Threads {
			vals := make([]float64, 0, len(workloads))
			for _, wl := range workloads {
				vals = append(vals, data.Speedup[wl][pol][ti])
			}
			gm[ti] = GeoMean(vals)
		}
		data.Geomean[pol] = gm
	}
	return data, nil
}

// Plot renders the Figure 3 panels as terminal line charts.
func (d *Fig3Data) Plot(w io.Writer) {
	ticks := make([]string, len(d.Threads))
	for i, th := range d.Threads {
		ticks[i] = fmt.Sprintf("%d", th)
	}
	panel := func(title string, series map[seer.PolicyKind][]float64) {
		c := plot.Chart{Title: title, XLabel: "threads", XTicks: ticks}
		for _, pol := range d.Policies {
			c.Series = append(c.Series, plot.Series{Name: string(pol), Values: series[pol]})
		}
		fmt.Fprintln(w)
		c.Render(w)
	}
	for _, wl := range d.Workloads {
		panel("Figure 3: "+wl+" — speedup vs sequential", d.Speedup[wl])
	}
	panel("Figure 3i: geometric mean", d.Geomean)
}

// Render writes the Figure 3 panels as text tables.
func (d *Fig3Data) Render(w io.Writer) {
	for _, wl := range d.Workloads {
		fmt.Fprintf(w, "\nFigure 3: %s — speedup vs sequential\n", wl)
		renderSeriesTable(w, d.Threads, d.Policies, d.Speedup[wl])
	}
	fmt.Fprintf(w, "\nFigure 3i: geometric mean across %d benchmarks\n", len(d.Workloads))
	renderSeriesTable(w, d.Threads, d.Policies, d.Geomean)
}

// Table3Data holds the mode breakdown: [policy][threads] → mode
// percentages averaged across the suite.
type Table3Data struct {
	Policies []seer.PolicyKind
	Threads  []int
	// Pct[policy][threadIdx][mode] in percent.
	Pct map[seer.PolicyKind][][seer.NumModes]float64
}

// Table3Threads is the thread axis of Table 3.
var Table3Threads = []int{2, 4, 6, 8}

// Table3 reproduces Table 3: the percentage of transactions committed in
// each mode, averaged across the STAMP suite.
func Table3(opt Options, workloads []string, progress io.Writer) (*Table3Data, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = opt.suite()
	}
	data := &Table3Data{
		Policies: Fig3Policies,
		Threads:  Table3Threads,
		Pct:      map[seer.PolicyKind][][seer.NumModes]float64{},
	}
	type cell struct {
		pol  seer.PolicyKind
		ti   int
		last bool // last workload of the (pol, ti) block
	}
	var specs []Spec
	var cells []cell
	for _, pol := range Fig3Policies {
		data.Pct[pol] = make([][seer.NumModes]float64, len(Table3Threads))
		for ti, th := range Table3Threads {
			for wi, wl := range workloads {
				specs = append(specs, Spec{
					Workload: wl, Scale: opt.Scale, Policy: pol,
					Threads: th, Runs: opt.Runs, Seed: opt.Seed,
				})
				cells = append(cells, cell{pol: pol, ti: ti, last: wi == len(workloads)-1})
			}
		}
	}
	var sum [seer.NumModes]float64
	_, err := RunGrid(opt, specs, func(i int, res Result) {
		c := cells[i]
		for m := range sum {
			sum[m] += res.MeanModePct[m]
		}
		if !c.last {
			return
		}
		for m := range sum {
			sum[m] /= float64(len(workloads))
		}
		data.Pct[c.pol][c.ti] = sum
		sum = [seer.NumModes]float64{}
		if progress != nil {
			fmt.Fprintf(progress, "table3 %-5s %dt done\n", c.pol, Table3Threads[c.ti])
		}
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Render writes Table 3 as text.
func (d *Table3Data) Render(w io.Writer) {
	fmt.Fprintf(w, "\nTable 3: transaction-mode breakdown (%% of commits, averaged across STAMP)\n")
	fmt.Fprintf(w, "%-8s %-22s", "Variant", "Transaction Mode")
	for _, th := range d.Threads {
		fmt.Fprintf(w, " %5dt", th)
	}
	fmt.Fprintln(w)
	for _, pol := range d.Policies {
		for m := seer.Mode(0); m < seer.NumModes; m++ {
			// Skip rows that are identically zero for this policy.
			nonzero := false
			for ti := range d.Threads {
				if d.Pct[pol][ti][m] >= 0.05 {
					nonzero = true
				}
			}
			if !nonzero {
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

// Fig4Data holds the overhead study: profile-only Seer vs RTM.
type Fig4Data struct {
	Threads []int
	// Relative[threadIdx] is geomean(makespan_RTM / makespan_profileOnly)
	// across the workloads: 1.0 means no overhead, 0.95 means 5% slower.
	Relative []float64
	// PerWorkload[wl][threadIdx] for detailed inspection.
	PerWorkload map[string][]float64
}

// Fig4 reproduces Figure 4: the slowdown of Seer with all monitoring,
// inference and self-tuning active but no lock ever acquired, relative to
// RTM. The paper reports a mean below 5% and a maximum of 8%; the
// low-contention hashmap stays within 4%.
func Fig4(opt Options, workloads []string, progress io.Writer) (*Fig4Data, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = append(opt.suite(), "hashmap")
	}
	profOpts := profileOnlyOpts()
	data := &Fig4Data{
		Threads:     Fig3Threads,
		Relative:    make([]float64, len(Fig3Threads)),
		PerWorkload: map[string][]float64{},
	}
	// Grid: per (workload, threads), an RTM cell immediately followed by
	// its profile-only partner; the ordered callback pairs them up.
	type cell struct {
		wl  string
		ti  int
		rtm bool
	}
	var specs []Spec
	var cells []cell
	for _, wl := range workloads {
		data.PerWorkload[wl] = make([]float64, len(Fig3Threads))
		for ti, th := range Fig3Threads {
			specs = append(specs, Spec{
				Workload: wl, Scale: opt.Scale, Policy: seer.PolicyRTM,
				Threads: th, Runs: opt.Runs, Seed: opt.Seed,
			})
			cells = append(cells, cell{wl: wl, ti: ti, rtm: true})
			specs = append(specs, Spec{
				Workload: wl, Scale: opt.Scale, Policy: seer.PolicySeer,
				SeerOpts: &profOpts,
				Threads:  th, Runs: opt.Runs, Seed: opt.Seed,
			})
			cells = append(cells, cell{wl: wl, ti: ti})
		}
	}
	var rtmMakespan float64
	_, err := RunGrid(opt, specs, func(i int, res Result) {
		c := cells[i]
		if c.rtm {
			rtmMakespan = res.MeanMakespan
			return
		}
		rel := data.PerWorkload[c.wl]
		rel[c.ti] = rtmMakespan / res.MeanMakespan
		if c.ti == len(Fig3Threads)-1 && progress != nil {
			fmt.Fprintf(progress, "fig4 %-14s %v\n", c.wl, fmtSeries(rel))
		}
	})
	if err != nil {
		return nil, err
	}
	for ti := range Fig3Threads {
		vals := make([]float64, 0, len(workloads))
		for _, wl := range workloads {
			vals = append(vals, data.PerWorkload[wl][ti])
		}
		data.Relative[ti] = GeoMean(vals)
	}
	return data, nil
}

// Render writes Figure 4 as text.
func (d *Fig4Data) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 4: Seer profiling overhead (speedup of profile-only Seer relative to RTM; 1.00 = free)\n")
	fmt.Fprintf(w, "%-14s", "workload")
	for _, th := range d.Threads {
		fmt.Fprintf(w, " %5dt", th)
	}
	fmt.Fprintln(w)
	for _, wl := range sortedKeys(d.PerWorkload) {
		fmt.Fprintf(w, "%-14s", wl)
		for _, v := range d.PerWorkload[wl] {
			fmt.Fprintf(w, " %6.3f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "geomean")
	for _, v := range d.Relative {
		fmt.Fprintf(w, " %6.3f", v)
	}
	fmt.Fprintln(w)
}

// Fig5Data holds the cumulative ablation.
type Fig5Data struct {
	Workloads []string
	Variants  []string
	Threads   []int
	// Speedup[wl][variant][threadIdx], relative to the profile-only
	// variant at the same thread count (as in the paper's Figure 5).
	Speedup map[string]map[string][]float64
	// Geomean[variant][threadIdx].
	Geomean map[string][]float64
}

// Fig5 reproduces Figure 5: the speedup contributed by each Seer
// mechanism, cumulatively enabled over the profile-only baseline, plus
// the core-locks-only variant of the §5.3 discussion.
func Fig5(opt Options, workloads []string, progress io.Writer) (*Fig5Data, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = opt.suite()
	}
	variants := SeerVariants()
	data := &Fig5Data{
		Workloads: workloads,
		Threads:   Table3Threads,
		Speedup:   map[string]map[string][]float64{},
		Geomean:   map[string][]float64{},
	}
	for _, v := range variants {
		data.Variants = append(data.Variants, v.Name)
	}
	// Grid: per workload, the profile-only variant's cells come first and
	// double as the baseline — a fixed seed makes re-running the identical
	// spec pointless, so the old separate baseline sweep is folded away.
	specs, cells := variantGrid(opt, workloads, data.Threads, variants)
	base := make([]float64, len(data.Threads))
	_, err := RunGrid(opt, specs, func(i int, res Result) {
		c := cells[i]
		if c.vi == 0 {
			base[c.ti] = res.MeanMakespan
		}
		if c.ti == 0 {
			if data.Speedup[c.wl] == nil {
				data.Speedup[c.wl] = map[string][]float64{}
			}
			data.Speedup[c.wl][c.name] = make([]float64, len(data.Threads))
		}
		series := data.Speedup[c.wl][c.name]
		series[c.ti] = base[c.ti] / res.MeanMakespan
		if c.ti == len(data.Threads)-1 && progress != nil {
			fmt.Fprintf(progress, "fig5 %-14s %-16s %v\n", c.wl, c.name, fmtSeries(series))
		}
	})
	if err != nil {
		return nil, err
	}
	for _, v := range data.Variants {
		gm := make([]float64, len(data.Threads))
		for ti := range data.Threads {
			vals := make([]float64, 0, len(workloads))
			for _, wl := range workloads {
				vals = append(vals, data.Speedup[wl][v][ti])
			}
			gm[ti] = GeoMean(vals)
		}
		data.Geomean[v] = gm
	}
	return data, nil
}

// Render writes Figure 5 as text.
func (d *Fig5Data) Render(w io.Writer) {
	fmt.Fprintf(w, "\nFigure 5: cumulative contribution of Seer's mechanisms (speedup vs profile-only)\n")
	for _, wl := range append(append([]string{}, d.Workloads...), "geomean") {
		fmt.Fprintf(w, "%-14s", wl)
		for _, th := range d.Threads {
			fmt.Fprintf(w, " %6dt", th)
		}
		fmt.Fprintln(w)
		for _, v := range d.Variants {
			var series []float64
			if wl == "geomean" {
				series = d.Geomean[v]
			} else {
				series = d.Speedup[wl][v]
			}
			fmt.Fprintf(w, "  %-16s", v)
			for _, s := range series {
				fmt.Fprintf(w, " %6.2f", s)
			}
			fmt.Fprintln(w)
		}
	}
}

// variantCell locates one (workload, variant, thread) measurement in a
// variant grid.
type variantCell struct {
	wl   string
	name string
	vi   int
	ti   int
}

// variantGrid enumerates the (workload × variant × thread) cells of a
// Seer-variant ablation. Variant 0 comes first within each workload so
// its results can serve as the baseline in RunGrid's ordered callback.
func variantGrid(opt Options, workloads []string, threads []int, variants []struct {
	Name string
	Opts seer.SeerOptions
}) ([]Spec, []variantCell) {
	var specs []Spec
	var cells []variantCell
	for _, wl := range workloads {
		for vi, v := range variants {
			opts := v.Opts
			for ti, th := range threads {
				specs = append(specs, Spec{
					Workload: wl, Scale: opt.Scale, Policy: seer.PolicySeer,
					SeerOpts: &opts, Threads: th, Runs: opt.Runs, Seed: opt.Seed,
				})
				cells = append(cells, variantCell{wl: wl, name: v.Name, vi: vi, ti: ti})
			}
		}
	}
	return specs, cells
}

// LockFracData summarizes the §5.2 fine-granularity statistic.
type LockFracData struct {
	PerWorkload map[string]struct {
		MedianFrac float64
		AcqEvents  uint64
		SGLPct     float64
	}
}

// LockFrac measures, per workload at 8 threads, the median fraction of
// transaction locks acquired when any are (§5.2 reports <23% in half the
// cases) and the SGL usage.
func LockFrac(opt Options, workloads []string) (*LockFracData, error) {
	opt = opt.normalized()
	if workloads == nil {
		workloads = opt.suite()
	}
	data := &LockFracData{PerWorkload: map[string]struct {
		MedianFrac float64
		AcqEvents  uint64
		SGLPct     float64
	}{}}
	specs := make([]Spec, len(workloads))
	for i, wl := range workloads {
		specs[i] = Spec{
			Workload: wl, Scale: opt.Scale, Policy: seer.PolicySeer,
			Threads: 8, Runs: opt.Runs, Seed: opt.Seed,
		}
	}
	_, err := RunGrid(opt, specs, func(i int, res Result) {
		var entry struct {
			MedianFrac float64
			AcqEvents  uint64
			SGLPct     float64
		}
		for _, rep := range res.Reports {
			if rep.Seer != nil {
				entry.MedianFrac += rep.Seer.LockFracMedian
				entry.AcqEvents += rep.Seer.LockAcqEvents
			}
			entry.SGLPct += rep.ModeFractions()[seer.ModeSGL]
		}
		n := float64(len(res.Reports))
		entry.MedianFrac /= n
		entry.SGLPct /= n
		data.PerWorkload[workloads[i]] = entry
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Render writes the lock-fraction summary as text.
func (d *LockFracData) Render(w io.Writer) {
	fmt.Fprintf(w, "\n§5.2: tx-lock granularity at 8 threads\n")
	fmt.Fprintf(w, "%-14s %12s %12s %8s\n", "workload", "medianFrac", "acqEvents", "SGL%")
	for _, wl := range sortedKeys(d.PerWorkload) {
		e := d.PerWorkload[wl]
		fmt.Fprintf(w, "%-14s %12.2f %12d %8.2f\n", wl, e.MedianFrac, e.AcqEvents, e.SGLPct)
	}
}

// Suite returns the Figure 3 workload list.
func Suite() []string { return append([]string{}, stamp.Suite...) }

// profileOnlyOpts returns the no-lock Seer variant used by Figure 4.
func profileOnlyOpts() seer.SeerOptions { return core.ProfileOnly() }

// sortedKeys returns the map's keys in sorted order, for stable rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// helpers

func fmtSeries(s []float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func renderSeriesTable(w io.Writer, threads []int, policies []seer.PolicyKind, series map[seer.PolicyKind][]float64) {
	fmt.Fprintf(w, "%-6s", "")
	for _, th := range threads {
		fmt.Fprintf(w, " %5dt", th)
	}
	fmt.Fprintln(w)
	for _, pol := range policies {
		fmt.Fprintf(w, "%-6s", pol)
		for _, v := range series[pol] {
			fmt.Fprintf(w, " %6.2f", v)
		}
		fmt.Fprintln(w)
	}
}
