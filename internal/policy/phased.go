package policy

import (
	"fmt"

	"seer/internal/mem"
	"seer/internal/spinlock"
)

// PhaseMode is the global execution mode of the phased-TM runtime, in the
// spirit of PhTM-Star's mode indicator: all threads consult one mode word
// and follow its current phase.
type PhaseMode int

// Phases. The numeric values are the telemetry.EvPhase payload encoding
// and the timeline's occupancy slots, so they must stay stable.
const (
	PhaseHW    PhaseMode = iota // hardware attempts with SGL fall-back
	PhaseSW                     // software (STM) commit path
	PhaseGLOCK                  // single-global-lock serialization
	PhaseCount
)

// String returns the phase mnemonic.
func (m PhaseMode) String() string {
	switch m {
	case PhaseHW:
		return "HW"
	case PhaseSW:
		return "SW"
	case PhaseGLOCK:
		return "GLOCK"
	default:
		return fmt.Sprintf("Phase(%d)", int(m))
	}
}

// DefaultSWRuns is the deferral persistence: how many software-mode
// completions a capacity-deferred thread performs before its deferral is
// considered drained. Values above one are the hysteresis that keeps a
// capacity-bound block in SW mode across its next few executions (it
// would almost certainly capacity-abort again) instead of ping-ponging
// HW → capacity abort → SW on every single execution.
const DefaultSWRuns = 4

// Phased is the phased-TM policy ("PhTM"): a PhTM-Star-style global mode
// word with HW ↔ SW ↔ GLOCK transitions driven by deferred/undeferred
// counters.
//
//   - In HW mode it behaves like RTM: up to MaxAttempts hardware attempts
//     with lemming avoidance, then the SGL (bracketed by GLOCK
//     transitions). A capacity abort, however, does not burn retries on
//     an attempt that cannot ever fit — it defers the thread to SW mode
//     (deferred count++, mode → SW).
//   - In SW mode every thread runs the software commit path (htm.RunSW):
//     slower per access but with no footprint limit and no global
//     serialization, so disjoint capacity-bound blocks commit
//     concurrently where an SGL fall-back would serialize the machine.
//     Each software completion by a deferred thread drains its deferral
//     budget; when the global deferred count reaches zero the mode
//     returns to HW (undeferred).
//   - GLOCK is entered only when a thread exhausts its retry budget on
//     data conflicts (HW or SW); it brackets the single-global-lock
//     acquisition so mode occupancy accounts for serialized stretches.
//
// The mode word is not stored: Mode derives it from the GLOCK depth and
// the deferral count. All decisions read and write plain fields between
// scheduling points of the single-goroutine engine, at deterministic
// virtual-time points — schedules and reports are byte-identical for a
// fixed seed. Unlike real PhTM, the mode word is pure scheduling policy,
// not a correctness mechanism: hardware and software transactions share
// the conflict registry, so cross-mode conflicts are detected physically
// and any interleaving of modes is serializable (see DESIGN.md §6k).
type Phased struct {
	SGL         spinlock.Lock
	MaxAttempts int

	// The deferrals are learned and carry across Runs (DESIGN §6f).
	deferred    int   // threads currently holding a deferral
	deferBudget []int // per-hw remaining SW completions of its deferral

	run phasedRun
}

// phasedRun is what one Run of the phased policy stamps; BeginRun
// replaces it whole.
type phasedRun struct {
	glockDepth int // threads inside the GLOCK bracket
	// The virtual-cycle split across phases, up to the last switch.
	occupancy  [PhaseCount]uint64
	lastSwitch uint64
}

// NewPhased builds the phased policy for a machine with hwThreads
// hardware threads.
func NewPhased(sgl spinlock.Lock, maxAttempts, hwThreads int) *Phased {
	return &Phased{
		SGL:         sgl,
		MaxAttempts: maxAttempts,
		deferBudget: make([]int, hwThreads),
	}
}

// Name implements Policy.
func (p *Phased) Name() string { return "PhTM" }

// Mode returns the current global execution mode: GLOCK while a thread
// is inside the GLOCK bracket, else SW while a deferral is held, else HW.
func (p *Phased) Mode() PhaseMode {
	switch {
	case p.run.glockDepth > 0:
		return PhaseGLOCK
	case p.deferred > 0:
		return PhaseSW
	}
	return PhaseHW
}

// BeginRun starts a Run at cycle 0, where the engine restarts the clocks:
// the run state restarts whole, so a Run that failed inside the GLOCK
// bracket leaves the mode to the deferrals, which carry over (DESIGN
// §6f).
func (p *Phased) BeginRun() { p.run = phasedRun{} }

// Occupancy is the Run's virtual-cycle split across phases as of virtual
// time now, with the open segment credited to the current phase; it is the
// timeline's phase source (telemetry.Options.Phase).
func (p *Phased) Occupancy(now uint64) [PhaseCount]uint64 {
	occ := p.run.occupancy
	occ[p.Mode()] += now - p.run.lastSwitch
	return occ
}

// switched follows a change of the deferral count or the GLOCK depth: if
// the mode moved from old, it credits the elapsed segment to old and
// counts the transition in t's ledger and the event log. Within a Run the
// mode changes in virtual-time order, so the segment is never negative.
func (p *Phased) switched(t *Thread, old PhaseMode) {
	m := p.Mode()
	if m == old {
		return
	}
	now := t.Ctx.Clock()
	p.run.occupancy[old] += now - p.run.lastSwitch
	p.run.lastSwitch = now
	t.PhaseTransitions++
	t.Obs.Phase(now, int(m), int(old))
}

// Run implements Policy.
func (p *Phased) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	for {
		// Deferred work runs in software, in SW mode and also while GLOCK
		// is held.
		if p.deferred > 0 {
			if p.runSW(t, body) {
				return
			}
		} else if p.runHW(t, body) {
			return
		}
	}
}

// runHW is the hardware phase: an RTM-style retry loop, except that a
// capacity abort defers the thread to SW mode instead of burning the
// remaining retries on a footprint that can never fit. Returns true when
// body committed; false means the caller must redispatch (the mode moved
// to SW).
func (p *Phased) runHW(t *Thread, body func(mem.Access)) bool {
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		status := attempt(t, p.SGL, PhaseHW, body)
		if status == 0 {
			t.commit(ModeHTM)
			return true
		}
		if status.Capacity() {
			p.deferToSW(t)
			return false
		}
	}
	p.runGlock(t, body)
	return true
}

// runSW is the software phase: up to MaxAttempts STM attempts, then the
// GLOCK bracket. Returns true when body committed; false means the mode
// returned to HW before a commit and the caller must redispatch.
func (p *Phased) runSW(t *Thread, body func(mem.Access)) bool {
	hw := t.Ctx.ID()
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		status := attempt(t, p.SGL, PhaseSW, body)
		if status == 0 {
			t.commit(ModeSTM)
			p.swDone(t, hw)
			return true
		}
		if p.Mode() == PhaseHW {
			// Undeferred while we were aborting: rejoin the HW phase.
			return false
		}
	}
	p.runGlock(t, body)
	p.swDone(t, hw) // a serialized commit drains the deferral too
	return true
}

// deferToSW routes a capacity-aborting thread to the software phase:
// its deferral budget is (re)armed and the global mode word moves to SW.
func (p *Phased) deferToSW(t *Thread) {
	hw, old := t.Ctx.ID(), p.Mode()
	if p.deferBudget[hw] == 0 {
		p.deferred++
	}
	t.Deferrals++
	p.deferBudget[hw] = DefaultSWRuns
	p.switched(t, old)
}

// swDone accounts one software-phase completion (STM or GLOCK commit) by
// hw: a deferred thread drains one unit of its budget, and when the last
// deferral drains the mode word returns to HW.
func (p *Phased) swDone(t *Thread, hw int) {
	if p.deferBudget[hw] == 0 {
		return
	}
	p.deferBudget[hw]--
	if p.deferBudget[hw] > 0 {
		return
	}
	old := p.Mode()
	p.deferred--
	t.Undeferrals++
	p.switched(t, old)
}

// runGlock serializes body on the single global lock, bracketed by GLOCK
// transitions so mode occupancy accounts for the serialized stretch. The
// depth counter keeps the mode in GLOCK while any thread is queued on or
// holding the lock through this path; leaving it, the mode returns to SW
// or HW by the deferral count.
func (p *Phased) runGlock(t *Thread, body func(mem.Access)) {
	old := p.Mode()
	p.run.glockDepth++
	p.switched(t, old)
	runSGL(t, p.SGL, body)
	p.run.glockDepth--
	p.switched(t, PhaseGLOCK)
}
