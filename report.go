package seer

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"seer/internal/htm"
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
	// HTM counts this Run's hardware transactions by outcome: the
	// policies' attempts plus Seer's multi-CAS lock acquisitions.
	HTM HTMCounters
	// HWAttempts is the number of hardware transactions the policy
	// issued (Seer's multi-CAS lock acquisitions not included);
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

	// Quantum holds the engine's speculative-quantum counters in this Run
	// (never nil; every System speculates at DefaultSpeculativeQuantum).
	// The counters are engine diagnostics, not simulated-machine state:
	// they are deliberately excluded from Summary, whose digest must not
	// depend on the speculation depth (the tests' per-tick reference
	// engine and the differential fuzz target rely on that).
	Quantum *QuantumReport

	// Timeline is this Run's interval-metrics series cut by the telemetry
	// recorder, from index 0 at cycle 0 (nil unless Config.MetricsInterval
	// > 0).
	Timeline []Snapshot

	// Inference is this Run's Seer inference-quality trajectory: the
	// learned locking scheme, learned over every Run so far, scored
	// against this Run's ground-truth conflict matrix at each of the Run's
	// metrics intervals, sharing Timeline's boundaries (nil unless
	// attribution is on and the Seer policy ran; see
	// Config.TraceAttempts/AttributionCounters).
	Inference []InferenceSnapshot
}

// HTMCounters counts transaction attempts by outcome, aborts split by
// cause; every attempt that did not abort committed.
type HTMCounters struct {
	Commits        uint64
	Aborts         uint64
	ConflictAborts uint64
	CapacityAborts uint64
	ExplicitAborts uint64
	SpuriousAborts uint64
}

// countsOf folds the outcomes of one or more ledger paths into
// HTMCounters.
func countsOf(paths ...telemetry.Outcomes) HTMCounters {
	var c HTMCounters
	for _, o := range paths {
		c.Commits += o.Attempts
		for _, n := range o.Aborts {
			c.Aborts += n
		}
		c.ConflictAborts += o.Aborts[htm.CauseConflict]
		c.CapacityAborts += o.Aborts[htm.CauseCapacity]
		c.ExplicitAborts += o.Aborts[htm.CauseExplicit]
		c.SpuriousAborts += o.Aborts[htm.CauseSpurious]
	}
	c.Commits -= c.Aborts
	return c
}

// SeerReport captures the scheduler at the end of a Run: its learned state
// (thresholds, scheme), which carries across Runs, and this Run's counts —
// scheme updates, tx-lock acquisitions, and the hardware multi-CAS
// acquisitions by outcome.
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
	// block, sorted lock ids), copied: later Runs do not change it.
	SchemeRows [][]int
}

// BackoffReport captures the Backoff policy's counters for one Run: how
// many randomized sleeps were issued and their total virtual-cycle cost
// (summed from the threads' ledgers, like Report.Modes), and the largest
// window any thread reached in the Run (bounded by the configured cap; the
// windows themselves carry across Runs).
type BackoffReport struct {
	Waits     uint64
	Cycles    uint64
	MaxWindow uint64
}

// PhasedReport captures the phased-TM runtime's counters for one Run: how
// often capacity aborts deferred work to the software commit path, the
// software attempt/commit/abort volume, the global mode word's transition
// count and how the makespan split across the HW/SW/GLOCK phases. The
// deferrals still held carry across Runs, and with them the mode a Run
// starts in (DESIGN §6f).
type PhasedReport struct {
	Deferrals   uint64
	Undeferrals uint64
	Transitions uint64
	// SWAttempts, SWCommits and SWAborts are the attempt volume of the
	// software commit path (every software attempt ends as exactly one
	// commit or one abort).
	SWAttempts uint64
	SWCommits  uint64
	SWAborts   uint64
	// ModeCycles is the virtual-cycle occupancy per phase, indexed
	// HW=0, SW=1, GLOCK=2 (policy.PhaseHW/PhaseSW/PhaseGLOCK).
	ModeCycles [3]uint64
	// STM counts the software commit path's attempts by outcome and cause
	// (the SW-mode analogue of Report.HTM).
	STM HTMCounters
}

// ModeFractions returns the percentage of ModeCycles per phase (all zero
// when no cycle was recorded).
func (p *PhasedReport) ModeFractions() (out [3]float64) {
	if total := p.ModeCycles[0] + p.ModeCycles[1] + p.ModeCycles[2]; total > 0 {
		for i, c := range p.ModeCycles {
			out[i] = 100 * float64(c) / float64(total)
		}
	}
	return out
}

// QuantumReport captures the engine's speculative-quantum activity:
// quanta granted, pure ticks journaled, rollbacks, and journaled ticks
// discarded by rollbacks (the quantum totals of System.EngineCounters).
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

// AbortRate returns hardware aborts per issued hardware transaction,
// Seer's multi-CAS lock acquisitions included (the transactions HTM
// counts).
func (r Report) AbortRate() float64 {
	issued := r.HTM.Commits + r.HTM.Aborts
	if issued == 0 {
		return 0
	}
	return float64(r.HTM.Aborts) / float64(issued)
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
		if occ := p.ModeFractions(); occ != [3]float64{} {
			fmt.Fprintf(&b, "  phase occupancy: HW %.1f%% SW %.1f%% GLOCK %.1f%%\n", occ[0], occ[1], occ[2])
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

// buildReport assembles the Report after a run.
func (s *System) buildReport(makespan uint64, threads []*policy.Thread) Report {
	r := Report{
		Policy:         s.pol.Name(),
		Threads:        s.cfg.Threads,
		MakespanCycles: makespan,
	}
	var c telemetry.Counters
	for _, t := range threads {
		if t != nil {
			c.Add(&t.Counters)
		}
	}
	hw, sw, cas := c.Paths[telemetry.PathHW], c.Paths[telemetry.PathSW], c.Paths[telemetry.PathMultiCAS]
	r.Modes = ModeCounts(c.Modes[:NumModes])
	r.HTM = countsOf(hw, cas)
	r.HWAttempts, r.Fallbacks = hw.Attempts, c.Modes[telemetry.ModeSGL]
	if s.sched != nil {
		mc := countsOf(cas)
		sr := &SeerReport{
			Thresholds:    s.sched.Thresholds(),
			SchemeUpdates: c.SchemeUpdates,
			MultiCASOk:    mc.Commits,
			MultiCASFail:  mc.Aborts,
		}
		// The scheduler rebuilds its rows in place at its next update, so
		// the Report copies them, every row on one backing array.
		rows := s.sched.Scheme()
		flat := slices.Concat(rows...)
		sr.SchemeRows = make([][]int, len(rows))
		for i, row := range rows {
			sr.SchemeRows[i], flat = flat[:len(row):len(row)], flat[len(row):]
		}
		sizes := s.sched.LockAcqSizes()
		for _, k := range sizes {
			sr.LockAcqEvents += k
		}
		// The median row size is the upper one, sizes[n/2] of the sorted
		// n sizes: the first size whose cumulative count passes n/2.
		var below uint64
		for size, k := range sizes {
			if below += k; below > sr.LockAcqEvents/2 {
				sr.LockFracMedian = float64(size) / float64(s.sched.NumTx())
				break
			}
		}
		r.Seer = sr
	}
	if bp, ok := s.pol.(*policy.Backoff); ok {
		r.Backoff = &BackoffReport{Waits: c.BackoffWaits, Cycles: c.BackoffCycles, MaxWindow: bp.PeakWindow()}
	}
	if pp, ok := s.pol.(*policy.Phased); ok {
		stm := countsOf(sw)
		r.Phased = &PhasedReport{
			Deferrals:   c.Deferrals,
			Undeferrals: c.Undeferrals,
			Transitions: c.PhaseTransitions,
			SWAttempts:  sw.Attempts,
			SWCommits:   stm.Commits,
			SWAborts:    stm.Aborts,
			ModeCycles:  pp.Occupancy(makespan),
			STM:         stm,
		}
	}
	ec := s.eng.Counters()
	r.Quantum = &QuantumReport{ec.QuantumGrants, ec.QuantumTicks, ec.Rollbacks, ec.RollbackTicks}
	s.obs.Flush(makespan)
	r.Timeline = s.obs.Timeline()
	r.Inference = s.obs.Quality()
	return r
}
