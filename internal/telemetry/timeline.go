package telemetry

import (
	"slices"

	"seer/internal/htm"
	"seer/internal/machine"
)

// MaxModes fixes the size of the per-mode commit arrays (policy.Mode
// indexes them), so adding a mode is a compile-time event here rather than
// a silent truncation.
const MaxModes = 8

// ModeNames are the CSV column names per commit-mode slot, in
// policy.Mode order (policy's tests check the lengths agree).
var ModeNames = [...]string{"htm", "htm_aux", "htm_tx", "htm_core", "htm_tx_core", "sgl", "stm"}

// ModeSGL is policy.ModeSGL's slot: every single-global-lock fall-back
// commits there once, so the slot is the fall-back count.
const ModeSGL = 5

// NumCauses is the number of abort causes (htm.Cause slots).
const NumCauses = int(htm.CauseOther) + 1

// CauseNames are the CSV column and rendering labels per htm.Cause.
var CauseNames = [NumCauses]string{"conflict", "capacity", "explicit", "spurious", "other"}

// Counters is one hardware thread's counter ledger for one Run: every
// event the Report and the timeline count is bumped here exactly once, by
// the runtime (policy.Thread embeds one). The Report sums the ledgers after
// the Run; the timeline diffs them at every interval boundary through the
// pointer each handle gets from Bind. Only the owning thread writes its
// ledger (the engine serializes execution), so nothing is synchronized.
type Counters struct {
	Modes         [MaxModes]uint64   // commits by policy.Mode
	Paths         [NumPaths]Outcomes // transaction attempts and their aborts, per path
	LockWait      uint64             // cycles spent waiting on locks (SGL, aux, tx, core)
	ParkSkipped   uint64             // lock-wait cycles the engine fast-forwarded by parking (subset of LockWait)
	BackoffWaits  uint64             // randomized sleeps of the Backoff policy
	BackoffCycles uint64             // cycles those sleeps lasted

	SchemeUpdates    uint64 // Seer's lock-scheme recomputations
	SchemeReuse      uint64 // those that grew no scheme row (the allocation-free steady state)
	Deferrals        uint64 // PhTM: capacity aborts routed to the software phase
	Undeferrals      uint64 // PhTM: deferrals drained
	PhaseTransitions uint64 // PhTM: global mode-word changes
}

// Paths index the ledger's attempt outcomes by where the attempt ran.
// PathHW and PathSW are the values of policy.PhaseHW and PhaseSW, which
// index Paths directly (policy's tests check they agree).
const (
	PathHW       = iota // the policies' hardware attempts
	PathSW              // the phased runtime's software (STM) attempts
	PathMultiCAS        // Seer's hardware multi-CAS tx-lock acquisitions
	NumPaths
)

// Outcomes counts one path's attempts and, by htm.Cause, the ones that
// aborted; every other attempt committed.
type Outcomes struct {
	Attempts uint64
	Aborts   [NumCauses]uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	for m := range c.Modes {
		c.Modes[m] += o.Modes[m]
	}
	for p := range c.Paths {
		c.Paths[p].Attempts += o.Paths[p].Attempts
		for i := range c.Paths[p].Aborts {
			c.Paths[p].Aborts[i] += o.Paths[p].Aborts[i]
		}
	}
	c.LockWait += o.LockWait
	c.ParkSkipped += o.ParkSkipped
	c.BackoffWaits += o.BackoffWaits
	c.BackoffCycles += o.BackoffCycles
	c.SchemeUpdates += o.SchemeUpdates
	c.SchemeReuse += o.SchemeReuse
	c.Deferrals += o.Deferrals
	c.Undeferrals += o.Undeferrals
	c.PhaseTransitions += o.PhaseTransitions
}

// attempts and aborts return what the timeline shows: the policies'
// attempts on either commit path, and their aborts with cause i. Seer's
// multi-CAS lock acquisitions are not attempts of the program's
// transactions and stay out.
func (c *Counters) attempts() uint64 { return c.Paths[PathHW].Attempts + c.Paths[PathSW].Attempts }

func (c *Counters) aborts(i int) uint64 { return c.Paths[PathHW].Aborts[i] + c.Paths[PathSW].Aborts[i] }

// PairCount is one victim←aborter conflict edge with its doom count.
type PairCount struct {
	Victim  int    `json:"victim"`
	Aborter int    `json:"aborter"`
	Count   uint64 `json:"count"`
}

// Snapshot is the aggregate over one interval of the timeline, plus the
// scheduler's control state at the interval boundary.
type Snapshot struct {
	Index      int    `json:"index"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`

	Commits     uint64            `json:"commits"`
	Modes       [MaxModes]uint64  `json:"modes"`
	Attempts    uint64            `json:"attempts"`
	Aborts      [NumCauses]uint64 `json:"aborts"`
	Fallbacks   uint64            `json:"fallbacks"`
	LockWait    uint64            `json:"lock_wait_cycles"`
	ParkSkipped uint64            `json:"park_skipped_cycles"`

	// BackoffWaits and BackoffCycles are the Backoff policy's randomized
	// sleeps in the interval; zero (and omitted from JSON) under every
	// other policy.
	BackoffWaits  uint64 `json:"backoff_waits,omitempty"`
	BackoffCycles uint64 `json:"backoff_cycles,omitempty"`

	// Quantum* are the engine's speculative-quantum activity in the
	// interval (Options.Quantum, diffed): quanta granted, pure ticks
	// journaled, rollbacks, and journaled ticks discarded by rollbacks.
	// Zero (and omitted from JSON) without that source.
	QuantumGrants        uint64 `json:"quantum_grants,omitempty"`
	QuantumTicks         uint64 `json:"quantum_ticks,omitempty"`
	QuantumRollbacks     uint64 `json:"quantum_rollbacks,omitempty"`
	QuantumRollbackTicks uint64 `json:"quantum_rollback_ticks,omitempty"`

	// Phase* are the phased-TM runtime's global execution mode over the
	// interval: mode transitions (from the ledgers), and how the interval's
	// cycles split across the HW/SW/GLOCK phases (Options.Phase, diffed).
	// Zero (and omitted from JSON) under every other policy.
	PhaseTransitions uint64 `json:"phase_transitions,omitempty"`
	PhaseHWCycles    uint64 `json:"phase_hw_cycles,omitempty"`
	PhaseSWCycles    uint64 `json:"phase_sw_cycles,omitempty"`
	PhaseGLOCKCycles uint64 `json:"phase_glock_cycles,omitempty"`

	// ConflictPairs are the interval's heaviest ground-truth conflict
	// edges (victim block ← aborter block, by doom count) and CascadeHist
	// its abort cascade-depth histogram (trailing zeroes trimmed). Both are
	// nil (and omitted from JSON) unless the attribution sink is on.
	ConflictPairs []PairCount `json:"conflict_pairs,omitempty"`
	CascadeHist   []uint64    `json:"cascade_hist,omitempty"`

	// Scheduler state sampled at EndCycle (Options.Scheduler; zero without
	// it, i.e. for non-Seer policies).
	Th1         float64 `json:"th1"`
	Th2         float64 `json:"th2"`
	SchemePairs int     `json:"scheme_pairs"`
	// SchemeReuse counts Seer's scheme updates in the interval that
	// completed without growing any row (from the ledgers).
	SchemeReuse uint64 `json:"scheme_reuse_hits"`
}

// Cycles returns the interval's length in virtual cycles.
func (s Snapshot) Cycles() uint64 { return s.EndCycle - s.StartCycle }

// Throughput returns commits per 1000 virtual cycles in the interval.
func (s Snapshot) Throughput() float64 {
	if s.EndCycle == s.StartCycle {
		return 0
	}
	return 1000 * float64(s.Commits) / float64(s.Cycles())
}

// AbortRate returns aborts per issued transaction attempt in the interval.
func (s Snapshot) AbortRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	var aborts uint64
	for _, a := range s.Aborts {
		aborts += a
	}
	return float64(aborts) / float64(s.Attempts)
}

// topConflictPairs is the number of conflict edges retained per snapshot.
const topConflictPairs = 4

// timeline is the interval-metrics sink: this Run's cut snapshots plus
// every cumulative value as of the last cut, against which the next
// interval is diffed. Every source restarts with the Run, and BeginRun
// zeroes the last-cut values with it.
type timeline struct {
	snaps []Snapshot
	arena arena

	prev        Counters
	prevEngine  machine.Counters
	prevPhase   [3]uint64
	prevTruth   []uint64 // sized with the attribution sink
	prevCascade [MaxCascadeDepth + 1]uint64
}

// arena backs the variable-length fields of the cut snapshots
// (ConflictPairs, CascadeHist): each is carved off the end of one growing
// slice per element type instead of allocated per cut. Growth
// leaves earlier carvings on the old backing array, which stays valid.
type arena struct {
	pairs []PairCount
	hist  []uint64
}

// carve appends vs to the arena and returns the appended region with its
// capacity clipped (nil for none), so appending to it cannot reach the
// next carving.
func carve[T any](arena *[]T, vs []T) []T {
	if len(vs) == 0 {
		return nil
	}
	*arena = append(*arena, vs...)
	return slices.Clip((*arena)[len(*arena)-len(vs):])
}

// cutSnapshot appends the snapshot of the interval [r.start, end).
func (r *Recorder) cutSnapshot(end uint64) {
	tl := &r.timeline
	var cur Counters
	for i := range r.threads {
		if c := r.threads[i].ledger; c != nil { // nil: no worker bound this Run (yet)
			cur.Add(c)
		}
	}
	snap := Snapshot{Index: len(tl.snaps), StartCycle: r.start, EndCycle: end}
	for i := range cur.Modes {
		snap.Modes[i] = cur.Modes[i] - tl.prev.Modes[i]
		snap.Commits += snap.Modes[i]
	}
	for i := range snap.Aborts {
		snap.Aborts[i] = cur.aborts(i) - tl.prev.aborts(i)
	}
	snap.Attempts = cur.attempts() - tl.prev.attempts()
	snap.Fallbacks = snap.Modes[ModeSGL]
	snap.LockWait = cur.LockWait - tl.prev.LockWait
	snap.ParkSkipped = cur.ParkSkipped - tl.prev.ParkSkipped
	snap.BackoffWaits = cur.BackoffWaits - tl.prev.BackoffWaits
	snap.BackoffCycles = cur.BackoffCycles - tl.prev.BackoffCycles
	snap.SchemeReuse = cur.SchemeReuse - tl.prev.SchemeReuse
	snap.PhaseTransitions = cur.PhaseTransitions - tl.prev.PhaseTransitions
	tl.prev = cur
	if src := r.opt.Scheduler; src != nil {
		snap.Th1, snap.Th2, snap.SchemePairs = src()
	}
	if src := r.opt.Quantum; src != nil {
		eng := src()
		snap.QuantumGrants = eng.QuantumGrants - tl.prevEngine.QuantumGrants
		snap.QuantumTicks = eng.QuantumTicks - tl.prevEngine.QuantumTicks
		snap.QuantumRollbacks = eng.Rollbacks - tl.prevEngine.Rollbacks
		snap.QuantumRollbackTicks = eng.RollbackTicks - tl.prevEngine.RollbackTicks
		tl.prevEngine = eng
	}
	if src := r.opt.Phase; src != nil {
		occ := src(end)
		snap.PhaseHWCycles = occ[0] - tl.prevPhase[0]
		snap.PhaseSWCycles = occ[1] - tl.prevPhase[1]
		snap.PhaseGLOCKCycles = occ[2] - tl.prevPhase[2]
		tl.prevPhase = occ
	}
	if a := r.attr; a != nil {
		var top [topConflictPairs]PairCount
		snap.ConflictPairs = carve(&tl.arena.pairs, a.rankPairs(tl.prevTruth, top[:]))
		copy(tl.prevTruth, a.truth)
		snap.CascadeHist = tl.cascadeDelta(a)
	}
	tl.snaps = append(tl.snaps, snap)
}

// cascadeDelta returns the interval's cascade-depth histogram with
// trailing zeroes trimmed (nil when the interval had no aborts).
func (tl *timeline) cascadeDelta(a *attribution) []uint64 {
	last := -1
	for d := range a.cascadeHist {
		if a.cascadeHist[d] != tl.prevCascade[d] {
			last = d
		}
	}
	var hist [MaxCascadeDepth + 1]uint64
	for d := 0; d <= last; d++ {
		hist[d] = a.cascadeHist[d] - tl.prevCascade[d]
	}
	tl.prevCascade = a.cascadeHist
	return carve(&tl.arena.hist, hist[:last+1])
}
