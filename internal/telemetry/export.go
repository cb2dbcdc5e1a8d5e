package telemetry

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Exporters for every sink. All are deterministic: identical inputs
// produce byte-identical output, so exports double as regression
// artifacts for same-seed runs. An exporter whose sink is off returns one
// of the errors below.
var (
	errNoTrace       = errors.New("telemetry: event log and span tracing disabled (set Config.TraceEvents or Config.TraceAttempts)")
	errNoAttribution = errors.New("telemetry: attribution disabled (set Config.TraceAttempts or Config.AttributionCounters)")
)

// --- Timeline ---

// CSVHeader returns the column layout of WriteCSV; exported so harness
// exhibits can prefix it with their own key columns.
func CSVHeader() []string {
	cols := []string{"index", "start_cycle", "end_cycle", "commits"}
	for _, m := range ModeNames {
		cols = append(cols, "mode_"+m)
	}
	cols = append(cols, "attempts")
	for _, c := range CauseNames {
		cols = append(cols, "aborts_"+c)
	}
	return append(cols,
		"fallbacks", "lock_wait_cycles", "park_skipped_cycles",
		"backoff_waits", "backoff_cycles",
		"th1", "th2", "scheme_pairs", "scheme_reuse_hits",
		"throughput_per_kcycle", "abort_rate",
		"attr_top_pair", "attr_top_pair_dooms", "cascade_deepest",
		"quantum_grants", "quantum_ticks",
		"quantum_rollbacks", "quantum_rollback_ticks",
		"phase_transitions", "phase_hw_cycles",
		"phase_sw_cycles", "phase_glock_cycles")
}

// CSVRecord renders one snapshot in CSVHeader's column order.
func CSVRecord(s Snapshot) []string {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	rec := []string{strconv.Itoa(s.Index), u(s.StartCycle), u(s.EndCycle), u(s.Commits)}
	for m := range ModeNames {
		rec = append(rec, u(s.Modes[m]))
	}
	rec = append(rec, u(s.Attempts))
	for _, a := range s.Aborts {
		rec = append(rec, u(a))
	}
	rec = append(rec,
		u(s.Fallbacks), u(s.LockWait), u(s.ParkSkipped), u(s.BackoffWaits), u(s.BackoffCycles),
		f(s.Th1), f(s.Th2), strconv.Itoa(s.SchemePairs), u(s.SchemeReuse),
		f(s.Throughput()), f(s.AbortRate()))
	// Attribution columns: empty/zero when the sink is off.
	topPair, topDooms, deepest := "", "0", ""
	if len(s.ConflictPairs) > 0 {
		topPair = fmt.Sprintf("tx%d<-tx%d", s.ConflictPairs[0].Victim, s.ConflictPairs[0].Aborter)
		topDooms = u(s.ConflictPairs[0].Count)
	}
	if len(s.CascadeHist) > 0 {
		deepest = strconv.Itoa(len(s.CascadeHist) - 1)
	}
	return append(rec, topPair, topDooms, deepest,
		u(s.QuantumGrants), u(s.QuantumTicks), u(s.QuantumRollbacks), u(s.QuantumRollbackTicks),
		u(s.PhaseTransitions), u(s.PhaseHWCycles), u(s.PhaseSWCycles), u(s.PhaseGLOCKCycles))
}

// WriteCSV renders a timeline as CSV, one row per interval.
func WriteCSV(w io.Writer, snaps []Snapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	for _, s := range snaps {
		if err := cw.Write(CSVRecord(s)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// --- Chrome trace ---

// WriteChromeTrace renders one Chrome trace-event JSON document, loadable
// in chrome://tracing or Perfetto, in which each sink that is on draws its
// own tracks. Every retained attempt span is a complete ("X") slice on its
// hardware thread's track, with the abort attribution in args. Every
// retained event is an instant carrying its payload, except threshold
// re-tunings, which draw a counter ("C") track, and — when spans are on —
// the begin/commit/abort/fallback events the slices already draw. Virtual
// cycles map 1:1 onto the format's microsecond timestamps. It errors only
// when both the event log and span retention are off.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r != nil && r.opt.Spans
	if !spans && (r == nil || len(r.ring.events) == 0) {
		return errNoTrace
	}
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"traceEvents":[`)
	sep := "\n"
	entry := func(format string, a ...any) {
		fmt.Fprint(bw, sep)
		sep = ",\n"
		fmt.Fprintf(bw, format, a...)
	}
	if spans {
		for i := range r.threads {
			for _, sp := range r.threads[i].spans {
				entry(`{"name":"tx%d/%s","cat":"attempt","ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{"retry":%d`,
					sp.Block, sp.Outcome.String(), sp.Begin, max(sp.End-sp.Begin, 1), sp.HW, sp.Retry)
				if sp.Outcome == OutcomeAbort {
					fmt.Fprintf(bw, `,"status":"%#x","depth":%d`, sp.Status, sp.Depth)
					if sp.Line != NoLine {
						fmt.Fprintf(bw, `,"aborter_hw":%d,"aborter_block":%d,"line":%d`, sp.AborterHW, sp.AborterBlock, sp.Line)
					}
				}
				fmt.Fprint(bw, `}}`)
			}
		}
	}
	for _, e := range r.Events() {
		if spans && e.Kind <= EvFallback {
			continue // begin, commit, abort, fallback: a slice draws each
		}
		// A thread-scoped instant named by the kind's mnemonic, carrying the
		// block, unless the case below says otherwise.
		name, ph, scope, args := e.Kind.String(), "i", `,"s":"t"`, fmt.Sprintf(`"tx":%d`, e.TxID)
		switch e.Kind {
		case EvCommit, EvAbort:
			name, args = fmt.Sprintf("tx%d", e.TxID), fmt.Sprintf(`"outcome":"%s"`, e.Kind)
			if e.Kind == EvAbort {
				args += fmt.Sprintf(`,"status":"%#x"`, e.Detail)
			}
		case EvFallback:
			name = "sgl-fallback"
		case EvLockAcq, EvLockRel:
			name = "lock-release"
			kind := "tx"
			if e.Kind == EvLockAcq {
				name = "lock-acquire"
			}
			if LockKind(e.Detail2) != LockTx {
				kind = "core"
			}
			args = fmt.Sprintf(`"kind":"%s","lock":%d`, kind, e.Detail)
		case EvScheme:
			name, scope, args = "scheme-update", `,"s":"p"`, fmt.Sprintf(`"pairs":%d`, e.Detail)
		case EvTune:
			name, ph, scope = "thresholds", "C", ""
			args = fmt.Sprintf(`"th1":%v,"th2":%v`,
				float64(math.Float32frombits(e.Detail)), float64(math.Float32frombits(e.Detail2)))
		case EvPhase:
			// Process-scoped, so the global mode change (0=HW, 1=SW,
			// 2=GLOCK) reads as a vertical line in Perfetto.
			scope, args = `,"s":"p"`, fmt.Sprintf(`"from":%d,"to":%d`, e.Detail2, e.Detail)
		case EvDoom:
			hw, block := UnpackAborter(e.Detail2)
			args = fmt.Sprintf(`"aborter_block":%d,"aborter_hw":%d,"line":%d,"victim_tx":%d`, block, hw, e.Detail, e.TxID)
		}
		entry(`{"name":"%s","ph":"%s","ts":%d,"pid":0,"tid":%d%s,"args":{%s}}`, name, ph, e.Cycle, e.HW, scope, args)
	}
	fmt.Fprintln(bw, "\n],\"displayTimeUnit\":\"ns\"}")
	return bw.Flush()
}

// --- Attribution ---

// WriteDOT renders the ground-truth conflict graph in Graphviz DOT form:
// one node per atomic block that participated in a conflict, one
// directed edge aborter→victim weighted by the doom count. Deterministic
// output (nodes and edges in ascending block order).
func (r *Recorder) WriteDOT(w io.Writer) error {
	a := r.attribution()
	if a == nil {
		return errNoAttribution
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph conflicts {")
	fmt.Fprintln(bw, "  rankdir=LR;")
	fmt.Fprintln(bw, "  node [shape=box];")
	n := a.nBlocks
	used := make([]bool, n)
	var maxW uint64
	for v := 0; v < n; v++ {
		for ab := 0; ab < n; ab++ {
			if w := a.truth[v*n+ab]; w > 0 {
				used[v], used[ab] = true, true
				maxW = max(maxW, w)
			}
		}
	}
	for b := 0; b < n; b++ {
		if used[b] {
			fmt.Fprintf(bw, "  tx%d [label=\"block %d\"];\n", b, b)
		}
	}
	for ab := 0; ab < n; ab++ {
		for v := 0; v < n; v++ {
			w := a.truth[v*n+ab]
			if w == 0 {
				continue
			}
			// Pen width scales with relative weight so hot edges pop.
			pw := 1 + 4*float64(w)/float64(maxW)
			fmt.Fprintf(bw, "  tx%d -> tx%d [label=\"%d\", penwidth=%.2f];\n", ab, v, w, pw)
		}
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteExplain renders the attribution digest behind `seerstat -explain`:
// the top-K aborting block pairs with ground-truth attribution, the
// hottest conflicting cache lines, the per-cause abort counts per block,
// the cascade-depth histogram, and — when the scorer ran — the final
// precision/recall of Seer's learned locks against truth.
func (r *Recorder) WriteExplain(w io.Writer, topK int) error {
	a := r.attribution()
	if a == nil {
		return errNoAttribution
	}
	if topK <= 0 {
		topK = 10
	}

	fmt.Fprintf(w, "attributed aborts: %d\n", a.attributed)

	fmt.Fprintf(w, "top conflicting block pairs (victim <- aborter):\n")
	pairs := r.TopPairs(topK)
	if len(pairs) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, p := range pairs {
		fmt.Fprintf(w, "  tx%-3d <- tx%-3d  %8d dooms\n", p.Victim, p.Aborter, p.Count)
	}

	fmt.Fprintf(w, "hot conflict lines:\n")
	lines := r.TopLines(topK)
	if len(lines) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
	for _, l := range lines {
		fmt.Fprintf(w, "  line %-8d %8d dooms\n", l.Line, l.Count)
	}

	fmt.Fprintf(w, "aborts by cause x victim block:\n")
	for cause, name := range CauseNames {
		row := a.causeBlock[cause*a.nBlocks : (cause+1)*a.nBlocks]
		var total uint64
		for _, v := range row {
			total += v
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-9s total=%d", name, total)
		for b, v := range row {
			if v > 0 {
				fmt.Fprintf(w, " tx%d=%d", b, v)
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "cascade depth histogram:\n")
	last := 0
	for d, v := range a.cascadeHist {
		if v > 0 {
			last = d
		}
	}
	for d := 0; d <= last; d++ {
		label := fmt.Sprintf("%d", d)
		if d == MaxCascadeDepth {
			label = fmt.Sprintf("%d+", d)
		}
		fmt.Fprintf(w, "  depth %-3s %8d\n", label, a.cascadeHist[d])
	}

	if snaps := r.scorer.quality; len(snaps) > 0 {
		fin := snaps[len(snaps)-1]
		fmt.Fprintf(w, "inference quality (final of %d snapshots):\n", len(snaps))
		fmt.Fprintf(w, "  true pairs=%d predicted=%d tp=%d precision=%.3f recall=%.3f rank-divergence=%.3f\n",
			fin.TruePairs, fin.PredictedPairs, fin.TP, fin.Precision, fin.Recall, fin.RankDivergence)
	}
	return nil
}
