package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// Row verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"  // median worse than the base by more than the bound
	verdictDisagree   = "DISAGREE"   // selfcheck: the two medians differ by more than the bound
	verdictChanged    = "CHANGED"    // an exact count or simulated result differs at the same seed
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound: neither unchanged nor regressed
	verdictInfo       = "info"       // per-layer host timing: reported, never gated
)

// compareRow is one (workload, metric) pairing of two ledgers.
type compareRow struct {
	Workload string
	Metric   metricDef
	Old, New summary
	Verdict  string
}

// ratio is new over old, the base.
func (r compareRow) ratio() float64 {
	if r.Old.Value == 0 {
		return 0
	}
	return r.New.Value / r.Old.Value
}

// worse is the share of the base by which new is worse (negative when
// it is better), in the metric's own direction.
func (r compareRow) worse() float64 {
	if r.Old.Value == 0 {
		return 0
	}
	d := (r.New.Value - r.Old.Value) / r.Old.Value
	if r.Metric.Better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every reading of new is better than every
// reading of old — the one case where a spread wider than the bound
// still resolves.
func (r compareRow) allBetter() bool {
	if r.Metric.Better == "higher" {
		return r.New.Min > r.Old.Max
	}
	return r.New.Max < r.Old.Min
}

// judge applies the rule for one row. sameSeed enables the equality
// rule for simulated values; symmetric (selfcheck) fails a difference in
// either direction.
func (r *compareRow) judge(sameSeed, symmetric bool) {
	d := r.Metric
	switch {
	case d.exactAtSeed() && sameSeed:
		r.Verdict = verdictOK
		if r.Old.Value != r.New.Value {
			r.Verdict = verdictChanged
		}
	case d.Bound == 0:
		r.Verdict = verdictInfo
	case r.worse() > d.Bound:
		r.Verdict = verdictRegressed
	case symmetric && -r.worse() > d.Bound:
		r.Verdict = verdictDisagree
	case max(r.Old.spread(), r.New.spread()) > d.Bound && !r.allBetter():
		r.Verdict = verdictUnresolved
	default:
		r.Verdict = verdictOK
	}
}

func (r compareRow) failed() bool {
	return r.Verdict == verdictRegressed || r.Verdict == verdictDisagree || r.Verdict == verdictChanged
}

// compareLedgers pairs every (workload, metric) of two ledgers. The
// end-to-end metrics are held to their bounds, every count.* and
// simulated result to equality when the seeds match; per-layer host
// timings are listed with their ratio but never gated.
func compareLedgers(old, cur *ledger, symmetric bool) []compareRow {
	sameSeed := old.Seed == cur.Seed
	var rows []compareRow
	add := func(wl string, d metricDef, o, n summary) {
		r := compareRow{Workload: wl, Metric: d, Old: o, New: n}
		r.judge(sameSeed, symmetric)
		rows = append(rows, r)
	}
	for _, n := range cur.Workloads {
		var o *workloadResult
		for i := range old.Workloads {
			if old.Workloads[i].Name == n.Name {
				o = &old.Workloads[i]
			}
		}
		if o == nil {
			continue
		}
		if sameSeed && o.Digest != n.Digest {
			rows = append(rows, compareRow{
				Workload: n.Name, Verdict: verdictChanged,
				Metric: metricDef{Name: "sim_digest", Clock: "sim"},
			})
		}
		for _, d := range endToEnd {
			add(n.Name, d, o.Metrics[d.Name], n.Metrics[d.Name])
		}
		if o.Layer != nil && n.Layer != nil {
			for _, d := range perWorkloadLayer {
				add(n.Name, d, o.Layer[d.Name], n.Layer[d.Name])
			}
		}
	}
	if old.Layers != nil && cur.Layers != nil {
		for _, name := range layerMetricNames() {
			d := metricDef{Name: name, Unit: cur.Layers[name].Unit, Clock: "host"}
			add("layers", d, old.Layers[name], cur.Layers[name])
		}
	}
	return rows
}

// printComparison writes every row with its base and returns how many
// failed and how many are unresolved.
func printComparison(w io.Writer, rows []compareRow) (failed, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told (base)\tnew\tnew/old\tworse by\tbound\tspread old\tspread new\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.Metric.exactAtSeed() {
			bound = "exact"
		} else if r.Metric.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Metric.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.4f\t%+.2f%%\t%s\t%.2f%%\t%.2f%%\t%s\n",
			r.Workload, r.Metric.Name, r.Old.Value, r.Metric.Unit, r.New.Value, r.ratio(),
			100*r.worse(), bound, 100*r.Old.spread(), 100*r.New.spread(), r.Verdict)
		if r.failed() {
			failed++
		}
		if r.Verdict == verdictUnresolved {
			unresolved++
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d rows, %d failed, %d unresolved\n", len(rows), failed, unresolved)
	return failed, unresolved
}

// compareFiles is `-compare old.json new.json`; it returns the exit code.
func compareFiles(oldPath, newPath string) int {
	old, err := loadLedger(oldPath)
	if err != nil {
		fatalf("%v", err)
	}
	cur, err := loadLedger(newPath)
	if err != nil {
		fatalf("%v", err)
	}
	if old.Seed != cur.Seed {
		fmt.Printf("seeds differ (%d vs %d): simulated values are compared by bound, not by equality\n", old.Seed, cur.Seed)
	}
	if failed, _ := printComparison(os.Stdout, compareLedgers(old, cur, false)); failed > 0 {
		return 1
	}
	return 0
}

// runSelfcheck measures the selected workloads twice on this commit,
// traced, and fails unless the two ledgers agree: every end-to-end metric
// within its bound in both directions, every count and simulated result
// equal. Each set runs in a fresh process of this program, as two
// separate invocations would: children spawned by a parent that has
// already run the memory-heavy layer drivers set up measurably slower.
func runSelfcheck(ctx context.Context, opt options) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var leds [2]*ledger
	for i := range leds {
		out := filepath.Join(outDir, fmt.Sprintf("selfcheck-%d", i+1))
		cmd := exec.CommandContext(ctx, exe,
			"-workload", opt.workloadFlag,
			"-reps", strconv.Itoa(opt.reps),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-trace", out+".trace.json", "-json", out+".json")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Printf("selfcheck set %d: %v\n", i+1, err)
			return 1
		}
		if leds[i], err = loadLedger(out + ".json"); err != nil {
			fatalf("%v", err)
		}
	}
	if failed, _ := printComparison(os.Stdout, compareLedgers(leds[0], leds[1], true)); failed > 0 {
		return 1
	}
	return 0
}
