package seer

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"seer/internal/policy"
	"seer/internal/telemetry"
	"seer/internal/tune"
)

// Report summarizes one System.Run.
type Report struct {
	Policy  string
	Threads int

	// MakespanCycles is the maximum final virtual clock over all worker
	// threads — the run's duration in simulated time.
	MakespanCycles uint64
	// Modes is the commit-mode histogram summed over threads (Table 3).
	Modes ModeCounts
	// HTM aggregates hardware commit/abort events by cause.
	HTM HTMCounters
	// HWAttempts is the number of hardware transactions issued;
	// Fallbacks counts single-global-lock acquisitions.
	HWAttempts uint64
	Fallbacks  uint64

	// Seer holds scheduler internals when the Seer policy ran.
	Seer *SeerReport

	// Backoff holds the randomized-backoff counters when the Backoff
	// policy ran (nil otherwise).
	Backoff *BackoffReport

	// Phased holds the phased-TM runtime's mode-word statistics when the
	// Phased policy ran (nil otherwise).
	Phased *PhasedReport

	// Quantum holds the engine's speculative-quantum counters (never nil;
	// every System speculates at DefaultSpeculativeQuantum). Like the HTM
	// counters they accumulate across Runs on one System. The counters
	// are engine diagnostics, not simulated-machine state: they are
	// deliberately excluded from Summary, whose digest must not depend on
	// the speculation depth (the tests' per-tick reference engine and the
	// differential fuzz target rely on that).
	Quantum *QuantumReport

	// Timeline is the interval-metrics series cut by the telemetry
	// recorder (nil unless Config.MetricsInterval > 0). Snapshots from
	// repeated Runs on one System accumulate.
	Timeline []Snapshot

	// Inference is the Seer inference-quality trajectory: the learned
	// locking scheme scored against the ground-truth conflict matrix at
	// each metrics interval (nil unless attribution is on and the Seer
	// policy ran; see Config.TraceAttempts/AttributionCounters).
	Inference []InferenceSnapshot
}

// SeerReport captures the scheduler state at the end of a run.
type SeerReport struct {
	Thresholds    tune.Params
	SchemeUpdates uint64
	MultiCASOk    uint64
	MultiCASFail  uint64
	// LockAcqEvents counts transactions that acquired a non-empty
	// tx-lock set; LockFracMedian is the median fraction of all tx
	// locks acquired in those events (the §5.2 "<23% in 50% of cases"
	// statistic).
	LockAcqEvents  uint64
	LockFracMedian float64
	// SchemeRows is the final locksToAcquire table (row per atomic
	// block, sorted lock ids).
	SchemeRows [][]int
}

// BackoffReport captures the Backoff policy's counters at the end of a
// run: how many randomized sleeps were issued, their total virtual-cycle
// cost, and the largest window any thread reached (bounded by the
// configured cap).
type BackoffReport struct {
	Waits     uint64
	Cycles    uint64
	MaxWindow uint64
}

// PhasedReport captures the phased-TM runtime's counters at the end of a
// run: how often capacity aborts deferred work to the software commit
// path, the software attempt/commit/abort volume, the global mode word's
// transition count and how the makespan split across the HW/SW/GLOCK
// phases.
type PhasedReport struct {
	Deferrals   uint64
	Undeferrals uint64
	Transitions uint64
	// SWAttempts, SWCommits and SWAborts are the attempt volume of the
	// software commit path, read off STM (every software attempt ends as
	// exactly one commit or one abort there).
	SWAttempts uint64
	SWCommits  uint64
	SWAborts   uint64
	// ModeCycles is the virtual-cycle occupancy per phase, indexed
	// HW=0, SW=1, GLOCK=2 (policy.PhaseHW/PhaseSW/PhaseGLOCK).
	ModeCycles [3]uint64
	// STM aggregates the software commit path's event counters by cause
	// (the SW-mode analogue of Report.HTM).
	STM HTMCounters
}

// QuantumReport captures the engine's speculative-quantum activity:
// quanta granted, pure ticks journaled, rollbacks, and journaled ticks
// discarded by rollbacks (see machine.Engine.QuantumCounters).
type QuantumReport struct {
	Grants        uint64
	Ticks         uint64
	Rollbacks     uint64
	RollbackTicks uint64
}

// Commits returns the total committed atomic blocks.
func (r Report) Commits() uint64 { return r.Modes.Total() }

// Throughput returns commits per 1000 virtual cycles.
func (r Report) Throughput() float64 {
	if r.MakespanCycles == 0 {
		return 0
	}
	return 1000 * float64(r.Commits()) / float64(r.MakespanCycles)
}

// AbortRate returns hardware aborts per issued hardware transaction.
func (r Report) AbortRate() float64 {
	if r.HWAttempts == 0 {
		return 0
	}
	return float64(r.HTM.Aborts) / float64(r.HWAttempts)
}

// ModeFractions returns the Table 3 style percentage per mode.
func (r Report) ModeFractions() [NumModes]float64 {
	var out [NumModes]float64
	total := r.Modes.Total()
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] = 100 * float64(r.Modes[i]) / float64(total)
	}
	return out
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s @ %d threads: %d commits in %d cycles (%.3f commits/kcycle, abort rate %.2f)\n",
		r.Policy, r.Threads, r.Commits(), r.MakespanCycles, r.Throughput(), r.AbortRate())
	fr := r.ModeFractions()
	for m := Mode(0); m < NumModes; m++ {
		if r.Modes[m] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-22s %6.2f%%\n", m.String(), fr[m])
	}
	if r.Seer != nil {
		fmt.Fprintf(&b, "  seer: Th1=%.3f Th2=%.3f updates=%d multiCAS=%d/%d lockAcq=%d medianLockFrac=%.2f\n",
			r.Seer.Thresholds.Th1, r.Seer.Thresholds.Th2, r.Seer.SchemeUpdates,
			r.Seer.MultiCASOk, r.Seer.MultiCASOk+r.Seer.MultiCASFail,
			r.Seer.LockAcqEvents, r.Seer.LockFracMedian)
	}
	if r.Backoff != nil {
		fmt.Fprintf(&b, "  backoff: waits=%d cycles=%d maxWindow=%d\n",
			r.Backoff.Waits, r.Backoff.Cycles, r.Backoff.MaxWindow)
	}
	if p := r.Phased; p != nil {
		fmt.Fprintf(&b, "  phased: deferrals=%d undeferrals=%d transitions=%d sw %d/%d committed\n",
			p.Deferrals, p.Undeferrals, p.Transitions, p.SWCommits, p.SWAttempts)
		total := p.ModeCycles[0] + p.ModeCycles[1] + p.ModeCycles[2]
		if total > 0 {
			fmt.Fprintf(&b, "  phase occupancy: HW %.1f%% SW %.1f%% GLOCK %.1f%%\n",
				100*float64(p.ModeCycles[0])/float64(total),
				100*float64(p.ModeCycles[1])/float64(total),
				100*float64(p.ModeCycles[2])/float64(total))
		}
	}
	if q := r.Quantum; q != nil && q.Grants > 0 {
		fmt.Fprintf(&b, "  quantum: grants=%d ticks=%d rollbacks=%d rolledback=%d\n",
			q.Grants, q.Ticks, q.Rollbacks, q.RollbackTicks)
	}
	return b.String()
}

// Summary renders a canonical, deterministic digest of the report: every
// counter the runtime maintains, in a fixed order and fixed formatting.
// Two runs of the same Config and seed must produce byte-identical
// summaries — the determinism golden test and `seerstat -summary` are
// built on this. Unlike String, zero counters are printed, so the digest
// shape is independent of which events happened to occur.
func (r Report) Summary() string {
	// One buffer; the per-interval lines, which dominate a timeline run,
	// are formatted with strconv so they box nothing.
	b := make([]byte, 0, 512+192*(len(r.Timeline)+len(r.Inference)))
	b = fmt.Appendf(b, "policy=%s threads=%d\n", r.Policy, r.Threads)
	b = fmt.Appendf(b, "makespan=%d commits=%d\n", r.MakespanCycles, r.Commits())
	for m := Mode(0); m < NumModes; m++ {
		// The STM mode line appears only when the Phased policy ran, so
		// digests of every other policy are unchanged (the Backoff-line
		// precedent below).
		if m == ModeSTM && r.Phased == nil {
			continue
		}
		b = fmt.Appendf(b, "mode[%s]=%d\n", m.String(), r.Modes[m])
	}
	b = fmt.Appendf(b, "htm commits=%d aborts=%d conflict=%d capacity=%d explicit=%d spurious=%d\n",
		r.HTM.Commits, r.HTM.Aborts, r.HTM.ConflictAborts, r.HTM.CapacityAborts,
		r.HTM.ExplicitAborts, r.HTM.SpuriousAborts)
	b = fmt.Appendf(b, "hwattempts=%d fallbacks=%d\n", r.HWAttempts, r.Fallbacks)
	if r.Seer != nil {
		b = fmt.Appendf(b, "seer th1=%.6f th2=%.6f updates=%d multicas=%d/%d lockacq=%d medianfrac=%.6f\n",
			r.Seer.Thresholds.Th1, r.Seer.Thresholds.Th2, r.Seer.SchemeUpdates,
			r.Seer.MultiCASOk, r.Seer.MultiCASFail, r.Seer.LockAcqEvents, r.Seer.LockFracMedian)
		for i, row := range r.Seer.SchemeRows {
			b = fmt.Appendf(b, "scheme[%d]=%v\n", i, row)
		}
	}
	// The backoff line appears only when the Backoff policy ran, so
	// digests of every other policy are unchanged.
	if r.Backoff != nil {
		b = fmt.Appendf(b, "backoff waits=%d cycles=%d maxwindow=%d\n",
			r.Backoff.Waits, r.Backoff.Cycles, r.Backoff.MaxWindow)
	}
	// Phased lines appear only when the Phased policy ran, so digests of
	// every other policy are unchanged.
	if p := r.Phased; p != nil {
		b = fmt.Appendf(b, "phased deferrals=%d undeferrals=%d transitions=%d\n",
			p.Deferrals, p.Undeferrals, p.Transitions)
		b = fmt.Appendf(b, "phased sw attempts=%d commits=%d aborts=%d conflict=%d explicit=%d\n",
			p.SWAttempts, p.SWCommits, p.SWAborts, p.STM.ConflictAborts, p.STM.ExplicitAborts)
		b = fmt.Appendf(b, "phased cycles hw=%d sw=%d glock=%d\n",
			p.ModeCycles[0], p.ModeCycles[1], p.ModeCycles[2])
	}
	b = fmt.Appendf(b, "timeline intervals=%d\n", len(r.Timeline))
	for _, s := range r.Timeline {
		b = appendUints(b, "interval[", uint64(s.Index))
		b = appendUints(b, "] ", s.StartCycle)
		b = appendUints(b, "..", s.EndCycle)
		b = appendUints(b, " commits=", s.Commits)
		b = appendUints(b, " attempts=", s.Attempts)
		b = appendUints(b, " aborts=[", s.Aborts[:]...)
		b = appendUints(b, "] fallbacks=", s.Fallbacks)
		b = appendUints(b, " lockwait=", s.LockWait)
		b = appendUints(b, " modes=[", s.Modes[:]...)
		b = append(b, "]\n"...)
	}
	// Inference lines appear only when attribution ran, so digests of
	// runs with tracing disabled are unchanged.
	for _, q := range r.Inference {
		b = appendUints(b, "inference[", uint64(q.Index))
		b = appendUints(b, "] end=", q.EndCycle)
		b = appendUints(b, " true=", uint64(q.TruePairs))
		b = appendUints(b, " predicted=", uint64(q.PredictedPairs))
		b = appendUints(b, " tp=", uint64(q.TP))
		b = strconv.AppendFloat(append(b, " precision="...), q.Precision, 'f', 6, 64)
		b = strconv.AppendFloat(append(b, " recall="...), q.Recall, 'f', 6, 64)
		b = strconv.AppendFloat(append(b, " rankdiv="...), q.RankDivergence, 'f', 6, 64)
		b = appendUints(b, " attributed=", q.Attributed)
		b = append(b, '\n')
	}
	return string(b)
}

// appendUints appends label followed by vs in decimal, space separated
// (fmt's %d, and its %v of an integer array between the brackets).
func appendUints(b []byte, label string, vs ...uint64) []byte {
	b = append(b, label...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return b
}

// WriteTimelineCSV renders Report.Timeline as CSV, one row per interval.
func (r Report) WriteTimelineCSV(w io.Writer) error {
	return telemetry.WriteCSV(w, r.Timeline)
}

// WriteTimelineJSONL renders Report.Timeline as JSON Lines.
func (r Report) WriteTimelineJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, r.Timeline)
}

// WriteChromeTrace synthesizes a Chrome trace-event JSON document
// (loadable in chrome://tracing or Perfetto) from the system's retained
// event log. It requires Config.TraceEvents > 0.
func (s *System) WriteChromeTrace(w io.Writer) error { return s.obs.WriteChromeTrace(w) }

// buildReport assembles the Report after a run.
func (s *System) buildReport(makespan uint64, threads []*policy.Thread) Report {
	r := Report{
		Policy:         s.pol.Name(),
		Threads:        s.cfg.Threads,
		MakespanCycles: makespan,
		HTM:            s.htm.Counters(),
	}
	for _, t := range threads {
		if t == nil {
			continue
		}
		r.Modes.Add(t.Modes)
		r.HWAttempts += t.Attempts
		r.Fallbacks += t.Fallbacks
	}
	if s.sched != nil {
		sr := &SeerReport{
			Thresholds:    s.sched.Thresholds(),
			SchemeUpdates: s.sched.SchemeUpdates,
			MultiCASOk:    s.sched.MultiCASOk,
			MultiCASFail:  s.sched.MultiCASFail,
			LockAcqEvents: s.sched.LockAcqEvents,
			SchemeRows:    s.sched.Scheme(),
		}
		if n := len(s.sched.LockAcqSamples); n > 0 {
			sizes := make([]int, n)
			copy(sizes, s.sched.LockAcqSamples)
			sort.Ints(sizes)
			median := sizes[n/2]
			sr.LockFracMedian = float64(median) / float64(s.sched.NumTx())
		}
		r.Seer = sr
	}
	if bp, ok := s.pol.(*policy.Backoff); ok {
		br := &BackoffReport{}
		br.Waits, br.Cycles, br.MaxWindow = bp.Stats()
		r.Backoff = br
	}
	if pp, ok := s.pol.(*policy.Phased); ok {
		st := pp.Stats(makespan)
		stm := s.htm.SWCounters()
		r.Phased = &PhasedReport{
			Deferrals:   st.Deferrals,
			Undeferrals: st.Undeferrals,
			Transitions: st.Transitions,
			SWAttempts:  stm.Commits + stm.Aborts,
			SWCommits:   stm.Commits,
			SWAborts:    stm.Aborts,
			ModeCycles:  st.Occupancy,
			STM:         stm,
		}
	}
	qr := &QuantumReport{}
	qr.Grants, qr.Ticks, qr.Rollbacks, qr.RollbackTicks = s.eng.QuantumCounters()
	r.Quantum = qr
	s.obs.Flush(makespan)
	r.Timeline = s.obs.Timeline()
	r.Inference = s.obs.Quality()
	return r
}
