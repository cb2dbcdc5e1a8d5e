// Command seerstat runs one cell — one workload under one policy (Seer
// by default) on one machine shape — and dumps what happened: the
// commit-mode breakdown and HTM counters under every policy and, under
// Seer, the scheduler's internals (merged conflict statistics, inferred
// locking scheme, threshold trajectory, lock-acquisition accounting). It
// is the debugging/inspection companion of seerbench and sizes, shapes
// and runs its cell exactly as seerbench does (harness.Spec.Config).
//
// Usage:
//
//	seerstat -workload intruder -threads 8 -scale 0.5 [-policy Seer]
//	seerstat -workload intruder -threads 32 -topology 2s8c2t [-remote-cost n]
//	seerstat -workload intruder -explain
//	seerstat -workload hashmap -spans-jsonl spans.jsonl -spans-chrome spans.json -conflict-dot graph.dot
//
// -explain enables the ground-truth abort-attribution subsystem and
// prints the conflict digest real hardware cannot produce: the top
// aborting block pairs (victim ← aborter), the hottest conflicting cache
// lines, abort cascade depths and — under the Seer policy — the
// inference-quality trajectory of the learned locks against the true
// conflict graph. The spans/DOT flags export per-attempt spans (JSONL or
// Chrome trace-event) and the weighted conflict graph (Graphviz).
//
// -timeline also prints the simulator's own efficiency counters, among
// them the engine's speculative quanta. Speculation always runs, at
// seer.DefaultSpeculativeQuantum, and no flag changes it: it is engine
// mechanics, not part of the simulated machine (DESIGN.md §6i).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"seer"
	"seer/internal/core"
	"seer/internal/harness"
	"seer/internal/plot"
	"seer/internal/stamp"
	"seer/internal/telemetry"
)

// renderEngineCounters appends the engine-efficiency lines to a rendered
// timeline: lock-wait cycles the event loop fast-forwarded by parking
// waiters, and scheme updates that reused all row capacity. These quantify
// simulator-side savings (host time, allocations), not modeled behavior,
// so they live here rather than in the shared exhibit renderer.
func renderEngineCounters(w io.Writer, snaps []seer.Snapshot) {
	if len(snaps) == 0 {
		return
	}
	const width = 64
	parked := make([]float64, len(snaps))
	var totalParked, totalWait, totalReuse uint64
	var totalGrants, totalQTicks, totalRollbacks, totalRbTicks uint64
	for i, s := range snaps {
		parked[i] = float64(s.ParkSkipped)
		totalParked += s.ParkSkipped
		totalWait += s.LockWait
		totalReuse += s.SchemeReuse
		totalGrants += s.QuantumGrants
		totalQTicks += s.QuantumTicks
		totalRollbacks += s.QuantumRollbacks
		totalRbTicks += s.QuantumRollbackTicks
	}
	frac := 0.0
	if totalWait > 0 {
		frac = 100 * float64(totalParked) / float64(totalWait)
	}
	fmt.Fprintf(w, "  park skip   %s  [%d cycles, %.1f%% of lock wait]\n",
		plot.Sparkline(parked, width), totalParked, frac)
	if totalReuse > 0 {
		fmt.Fprintf(w, "  scheme reuse: %d updates reused all row capacity\n", totalReuse)
	}
	if totalGrants > 0 {
		fmt.Fprintf(w, "  quantum: %d grants deferred %d ticks (%.1f/grant), %d rollbacks discarded %d\n",
			totalGrants, totalQTicks, float64(totalQTicks)/float64(totalGrants),
			totalRollbacks, totalRbTicks)
	}
}

// renderModeTimeline renders the phased runtime's per-interval mode
// occupancy as sparklines — the share of each interval's virtual cycles
// spent in the HW, SW and GLOCK phases — plus the mode-word transition
// count. Intervals without phase data (every non-phased policy) render
// nothing.
func renderModeTimeline(w io.Writer, snaps []seer.Snapshot) {
	const width = 64
	var transitions uint64
	hw := make([]float64, len(snaps))
	sw := make([]float64, len(snaps))
	gl := make([]float64, len(snaps))
	any := false
	for i, s := range snaps {
		transitions += s.PhaseTransitions
		total := s.PhaseHWCycles + s.PhaseSWCycles + s.PhaseGLOCKCycles
		if total == 0 {
			continue
		}
		any = true
		hw[i] = 100 * float64(s.PhaseHWCycles) / float64(total)
		sw[i] = 100 * float64(s.PhaseSWCycles) / float64(total)
		gl[i] = 100 * float64(s.PhaseGLOCKCycles) / float64(total)
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\nPhased mode timeline (%% of interval cycles per phase):\n")
	fmt.Fprintf(w, "  HW          %s\n", plot.Sparkline(hw, width))
	fmt.Fprintf(w, "  SW          %s\n", plot.Sparkline(sw, width))
	fmt.Fprintf(w, "  GLOCK       %s\n", plot.Sparkline(gl, width))
	fmt.Fprintf(w, "  transitions %d\n", transitions)
}

// jsonOut is the machine-readable shape of a seerstat run.
type jsonOut struct {
	Policy         string             `json:"policy"`
	Threads        int                `json:"threads"`
	MakespanCycles uint64             `json:"makespan_cycles"`
	Commits        uint64             `json:"commits"`
	Throughput     float64            `json:"commits_per_kcycle"`
	AbortRate      float64            `json:"abort_rate"`
	Modes          map[string]float64 `json:"mode_percent"`
	HTM            seer.HTMCounters   `json:"htm"`
	Seer           *seerJSON          `json:"seer,omitempty"`
	Timeline       []seer.Snapshot    `json:"timeline,omitempty"`
}

type seerJSON struct {
	Th1           float64     `json:"th1"`
	Th2           float64     `json:"th2"`
	SchemeUpdates uint64      `json:"scheme_updates"`
	Scheme        [][]int     `json:"locks_to_acquire"`
	CondProbs     [][]float64 `json:"cond_abort_probs"`
	ConjProbs     [][]float64 `json:"conj_abort_probs"`
}

// emitJSON writes the run's state to w as one JSON document.
func emitJSON(w io.Writer, sys *seer.System, rep seer.Report) error {
	out := jsonOut{
		Policy:         rep.Policy,
		Threads:        rep.Threads,
		MakespanCycles: rep.MakespanCycles,
		Commits:        rep.Commits(),
		Throughput:     rep.Throughput(),
		AbortRate:      rep.AbortRate(),
		Modes:          map[string]float64{},
		HTM:            rep.HTM,
	}
	fr := rep.ModeFractions()
	for m := seer.Mode(0); m < seer.NumModes; m++ {
		if fr[m] > 0 {
			out.Modes[m.String()] = fr[m]
		}
	}
	if sched := sys.Scheduler(); sched != nil {
		th := sched.Thresholds()
		merged := sched.Merged()
		n := sched.NumTx()
		sj := &seerJSON{
			Th1: th.Th1, Th2: th.Th2,
			SchemeUpdates: sched.SchemeUpdates,
			Scheme:        sched.Scheme(),
		}
		for x := 0; x < n; x++ {
			cond := make([]float64, n)
			conj := make([]float64, n)
			for y := 0; y < n; y++ {
				cond[y] = merged.CondAbortProb(x, y)
				conj[y] = merged.ConjAbortProb(x, y)
			}
			sj.CondProbs = append(sj.CondProbs, cond)
			sj.ConjProbs = append(sj.ConjProbs, conj)
		}
		out.Seer = sj
	}
	out.Timeline = rep.Timeline
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and output streams as parameters, so
// tests can drive the command in-process. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seerstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "intruder", "workload name")
		threads    = fs.Int("threads", 8, "worker threads")
		scale      = fs.Float64("scale", 0.5, "workload scale")
		seed       = fs.Int64("seed", 1, "PRNG seed")
		policy     = fs.String("policy", "Seer", "policy (HLE|RTM|SCM|Backoff|ATS|Oracle|Seer|PhTM|seq)")
		topoSpec   = fs.String("topology", "", "machine shape, e.g. 2s8c2t (default: the paper's 1s4c2t testbed)")
		remoteCost = fs.Uint64("remote-cost", 0, "extra cycles per cross-socket access on multi-socket shapes")
		traceN     = fs.Int("trace", 0, "dump the last N runtime events")
		kindsSpec  = fs.String("trace-kinds", "", "comma-separated event kinds to dump (e.g. abort,lock+); empty = all")
		asJSON     = fs.Bool("json", false, "emit the report and inference state as JSON")
		summary    = fs.Bool("summary", false, "print the canonical deterministic report digest and exit")
		timeline   = fs.Bool("timeline", false, "render the per-interval metrics timeline (sparklines)")
		interval   = fs.Uint64("metrics-interval", 0, "telemetry snapshot period in cycles (0 = harness default when -timeline/-timeline-* set, else disabled)")
		csvPath    = fs.String("timeline-csv", "", "write the timeline as CSV to FILE")
		jsonlPath  = fs.String("timeline-jsonl", "", "write the timeline as JSON Lines to FILE")
		chromePath = fs.String("chrome-trace", "", "write a Chrome trace-event JSON document to FILE (enables tracing)")
		explain    = fs.Bool("explain", false, "print the abort-attribution digest: top conflicting block pairs, hot lines, cascade depths, inference quality")
		explainK   = fs.Int("explain-top", 10, "explain: number of pairs/lines to list")
		spansJSONL = fs.String("spans-jsonl", "", "write per-attempt spans as JSON Lines to FILE (enables span tracing)")
		spansChrom = fs.String("spans-chrome", "", "write per-attempt spans as a Chrome trace-event document to FILE (enables span tracing)")
		dotPath    = fs.String("conflict-dot", "", "write the ground-truth conflict graph as Graphviz DOT to FILE (enables attribution)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "seerstat: %v\n", err)
		return 1
	}

	kinds, err := telemetry.ParseKinds(*kindsSpec)
	if err != nil {
		return fail(err)
	}
	wl, err := stamp.New(*workload, *scale)
	if err != nil {
		return fail(err)
	}
	spec := harness.Spec{
		Workload: *workload, Scale: *scale, Policy: seer.PolicyKind(*policy), Threads: *threads,
		RemoteAccessCost: *remoteCost, MetricsInterval: *interval,
		Inference: *explain || *dotPath != "",
	}
	if *topoSpec != "" {
		if spec.Topology, err = seer.ParseTopology(*topoSpec); err != nil {
			return fail(err)
		}
	}
	if spec.MetricsInterval == 0 && (*timeline || *csvPath != "" || *jsonlPath != "") {
		spec.MetricsInterval = harness.DefaultMetricsInterval
	}
	cfg := spec.Config(wl, *seed)
	cfg.TraceEvents = *traceN
	if *chromePath != "" && cfg.TraceEvents == 0 {
		cfg.TraceEvents = 1 << 16
	}
	cfg.TraceAttempts = *spansJSONL != "" || *spansChrom != ""
	sys, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		return fail(err)
	}

	obs := sys.Recorder()
	for _, out := range []struct {
		path   string
		render func(io.Writer) error
	}{
		{*csvPath, rep.WriteTimelineCSV},
		{*jsonlPath, rep.WriteTimelineJSONL},
		{*chromePath, obs.WriteChromeTrace},
		{*spansJSONL, obs.WriteSpansJSONL},
		{*spansChrom, obs.WriteChromeSpans},
		{*dotPath, obs.WriteDOT},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return fail(err)
		}
		if err := errors.Join(out.render(f), f.Close()); err != nil {
			return fail(fmt.Errorf("%s: %w", out.path, err))
		}
	}

	if *summary {
		fmt.Fprint(stdout, rep.Summary())
		return 0
	}
	if *asJSON {
		if err := emitJSON(stdout, sys, rep); err != nil {
			return fail(err)
		}
		return 0
	}

	fmt.Fprint(stdout, rep.String())
	fmt.Fprintf(stdout, "HTM: commits=%d aborts=%d (conflict=%d capacity=%d explicit=%d spurious=%d) attempts=%d fallbacks=%d\n",
		rep.HTM.Commits, rep.HTM.Aborts, rep.HTM.ConflictAborts, rep.HTM.CapacityAborts,
		rep.HTM.ExplicitAborts, rep.HTM.SpuriousAborts, rep.HWAttempts, rep.Fallbacks)

	if *timeline {
		fmt.Fprintf(stdout, "\nTimeline (interval = %d cycles):\n", cfg.MetricsInterval)
		harness.RenderTimeline(stdout, fmt.Sprintf("%s/%s", *workload, rep.Policy), rep.Timeline)
		renderEngineCounters(stdout, rep.Timeline)
		renderModeTimeline(stdout, rep.Timeline)
	}

	if *explain {
		fmt.Fprintln(stdout)
		if err := obs.WriteExplain(stdout, *explainK); err != nil {
			return fail(fmt.Errorf("explain: %w", err))
		}
		if snaps := rep.Inference; len(snaps) > 0 {
			const width = 48
			prec := make([]float64, len(snaps))
			rec := make([]float64, len(snaps))
			for i, q := range snaps {
				prec[i] = q.Precision
				rec[i] = q.Recall
			}
			fin := snaps[len(snaps)-1]
			fmt.Fprintf(stdout, "\nInference-quality trajectory (%d snapshots):\n", len(snaps))
			fmt.Fprintf(stdout, "  precision   %s  [final %.3f]\n", plot.Sparkline(prec, width), fin.Precision)
			fmt.Fprintf(stdout, "  recall      %s  [final %.3f]\n", plot.Sparkline(rec, width), fin.Recall)
		}
	}

	if sched := sys.Scheduler(); sched != nil {
		renderScheduler(stdout, sched)
	}

	if *traceN > 0 {
		events := obs.Events()
		fmt.Fprintf(stdout, "\nLast %d runtime events (%s):\n", *traceN, telemetry.FormatSummary(events))
		telemetry.DumpEvents(stdout, events, kinds)
	}
	return 0
}

// renderScheduler dumps the Seer scheduler's internals: merged conflict
// statistics, abort probabilities, the locking scheme and its accounting.
func renderScheduler(w io.Writer, sched *core.Seer) {
	n := sched.NumTx()
	merged := sched.Merged()
	fmt.Fprintf(w, "\nConflict statistics (merged; rows = aborting tx, cols = concurrently active tx):\n")
	fmt.Fprintf(w, "%-4s %10s", "tx", "execs")
	for y := 0; y < n; y++ {
		fmt.Fprintf(w, "  a[%d]/c[%d]   ", y, y)
	}
	fmt.Fprintf(w, "\n")
	for x := 0; x < n; x++ {
		fmt.Fprintf(w, "T%-3d %10d", x, merged.Execs(x))
		for y := 0; y < n; y++ {
			fmt.Fprintf(w, " %6d/%-6d", merged.Aborts(x, y), merged.Commits(x, y))
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "\nConditional abort probabilities P(x aborts | x‖y):\n")
	for x := 0; x < n; x++ {
		fmt.Fprintf(w, "T%-3d", x)
		for y := 0; y < n; y++ {
			fmt.Fprintf(w, " %6.3f", merged.CondAbortProb(x, y))
		}
		fmt.Fprintf(w, "  | conj:")
		for y := 0; y < n; y++ {
			fmt.Fprintf(w, " %6.3f", merged.ConjAbortProb(x, y))
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "\nLocking scheme (locksToAcquire):\n")
	for x, row := range sched.Scheme() {
		fmt.Fprintf(w, "T%-3d -> %v\n", x, row)
	}
	th := sched.Thresholds()
	fmt.Fprintf(w, "\nThresholds: Th1=%.3f Th2=%.3f  scheme updates=%d\n", th.Th1, th.Th2, sched.SchemeUpdates)
	fmt.Fprintf(w, "Lock acquisitions: %d (multiCAS ok=%d fail=%d)\n",
		sched.LockAcqEvents, sched.MultiCASOk, sched.MultiCASFail)
}
