// Package policy implements the software side of the TM runtime: the
// retry loop around hardware transactions and the fall-back management.
// It provides the approaches compared in the paper's evaluation — HLE,
// RTM, SCM and Seer (with the ablation variants of Figures 4 and 5) — and
// the extra baselines Backoff, ATS, Oracle, PhTM and the sequential one,
// all over a uniform interface so the benchmark harness and the public API
// can swap them freely. Every hardware attempt goes through one runner,
// attempt, which first waits out a held single-global lock (lemming
// avoidance); the policies differ only in how they react to an abort.
//
// A transaction body is written against mem.Access and is executed either
// inside a hardware transaction (htm.Tx) or, on the fall-back path, with
// direct accesses while holding the single-global lock (mem.Direct); the
// body must therefore be idempotent up to its memory writes, like any
// HTM+SGL critical section.
//
// No policy unwinds the locks it holds when a Run fails: the System frees
// every runtime lock word before each Run starts.
package policy

import (
	"fmt"

	"seer/internal/core"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/telemetry"
)

// Mode classifies how a transaction finally committed; the breakdown of
// Table 3 is a histogram over these.
type Mode int

// Transaction commit modes.
const (
	ModeHTM       Mode = iota // hardware transaction, no auxiliary locks
	ModeHTMAux                // hardware transaction under SCM's auxiliary lock
	ModeHTMTx                 // hardware transaction holding Seer tx locks
	ModeHTMCore               // hardware transaction holding a Seer core lock
	ModeHTMTxCore             // hardware transaction holding both kinds
	ModeSGL                   // single-global-lock software fall-back
	ModeSTM                   // software (STM) commit path of the phased runtime
	NumModes
)

// String returns the Table 3 row label of the mode.
func (m Mode) String() string {
	switch m {
	case ModeHTM:
		return "HTM no locks"
	case ModeHTMAux:
		return "HTM + Aux lock"
	case ModeHTMTx:
		return "HTM + Tx Locks"
	case ModeHTMCore:
		return "HTM + Core Locks"
	case ModeHTMTxCore:
		return "HTM + Tx + Core Locks"
	case ModeSGL:
		return "SGL fall-back"
	case ModeSTM:
		return "STM sw-mode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeCounts is a histogram of commit modes.
type ModeCounts [NumModes]uint64

// Total returns the number of committed transactions across modes.
func (mc *ModeCounts) Total() uint64 {
	var t uint64
	for _, v := range mc {
		t += v
	}
	return t
}

// Add accumulates other into mc.
func (mc *ModeCounts) Add(other ModeCounts) {
	for i := range mc {
		mc[i] += other[i]
	}
}

// Fraction returns mode m's share of all commits, in [0, 1].
func (mc *ModeCounts) Fraction(m Mode) float64 {
	t := mc.Total()
	if t == 0 {
		return 0
	}
	return float64(mc[m]) / float64(t)
}

// Thread is the per-worker runtime state shared by all policies. Its
// embedded ledger is the one place the runtime counts commits by mode,
// attempts and aborts on every path, fall-backs, lock waits, backoff
// sleeps, Seer's scheme updates (with its multi-CAS outcomes, through
// core.ThreadState.Ledger) and the phased runtime's deferrals and mode
// transitions: the Report sums it after the Run and the telemetry timeline
// reads it while the Run goes on.
type Thread struct {
	Ctx    *machine.Ctx
	Mem    *mem.Memory
	HTM    *htm.Unit
	Direct *mem.Direct
	Obs    *telemetry.Thread // observability handle; nil records nothing
	Seer   *core.ThreadState // non-nil only under the Seer policy

	telemetry.Counters
}

// lockWaitBegin samples the clock and the engine's park counter before a
// lock wait; lockWaitEnd reports the elapsed cycles as lock wait, and how
// many of them were fast-forwarded by parking rather than simulated spin
// iterations.
func (t *Thread) lockWaitBegin() (startClock, startSkipped uint64) {
	return t.Ctx.Clock(), t.Ctx.ParkSkipped()
}

func (t *Thread) lockWaitEnd(startClock, startSkipped uint64) {
	t.LockWait += t.Ctx.Clock() - startClock
	t.ParkSkipped += t.Ctx.ParkSkipped() - startSkipped
}

// acquire takes lk, charging the wait to the thread's lock wait.
func (t *Thread) acquire(lk spinlock.Lock) {
	start, skipped := t.lockWaitBegin()
	lk.Acquire(t.Ctx, t.Mem)
	t.lockWaitEnd(start, skipped)
}

// commit counts a committed transaction in mode m.
func (t *Thread) commit(m Mode) { t.Modes[m]++ }

// NewThread builds the runtime state for ctx's hardware thread.
func NewThread(ctx *machine.Ctx, m *mem.Memory, u *htm.Unit) *Thread {
	cost := ctx.Machine().Cost
	d := mem.NewDirect(m, ctx.ID(), ctx.Tick, cost.DirectLoad, cost.DirectStore, cost.Work)
	// Direct Work is pure computation: route it through TickPure so
	// fall-back and sequential compute stretches can run under a
	// speculative quantum (loads/stores keep the impure tick).
	d.SetWorkTick(ctx.TickPure)
	return &Thread{
		Ctx:    ctx,
		Mem:    m,
		HTM:    u,
		Direct: d,
	}
}

// Policy runs transaction bodies to completion under some scheduling
// discipline.
type Policy interface {
	// Name identifies the policy in reports ("HLE", "RTM", ...).
	Name() string
	// Run executes body atomically for atomic block txID on t's thread,
	// retrying as the policy dictates, and records the commit mode. obj
	// is the object identifier used by Seer's object-granular locking
	// extension; other policies ignore it (pass 0 when unknown).
	Run(t *Thread, txID int, obj uint64, body func(mem.Access))
}

// attempt runs body once as a transaction in the given execution phase
// (speculate) after waiting out a held single-global lock: lemming
// avoidance, charged to the thread's lock wait.
func attempt(t *Thread, sgl spinlock.Lock, phase PhaseMode, body func(mem.Access)) htm.Status {
	if sgl.LockedFast(t.Mem) {
		t.Obs.Wait(t.Ctx.Clock(), 0) // the SGL has no telemetry.LockKind: waits on it carry 0
		start, skipped := t.lockWaitBegin()
		sgl.SpinWhileLocked(t.Ctx)
		t.lockWaitEnd(start, skipped)
	}
	return speculate(t, sgl, phase, body)
}

// speculate runs body once as a transaction in the given execution phase —
// PhaseHW on the hardware path, PhaseSW on the software commit path — that
// first subscribes to the single-global lock, aborting explicitly if it is
// held, to stay correct with respect to the fall-back path: a transaction
// must not commit while an SGL holder is mid-critical-section, and loading
// the lock word registers it, so the holder's acquire store dooms the
// subscriber (strong isolation) in either mode. The subscription is the
// HTM's engine-side prologue (htm.Unit.RunSubscribed).
func speculate(t *Thread, sgl spinlock.Lock, phase PhaseMode, body func(mem.Access)) htm.Status {
	t.Obs.AttemptBegin(t.Ctx.Clock())
	path := &t.Paths[phase] // telemetry.PathHW or PathSW
	path.Attempts++
	status := t.HTM.RunSubscribed(t.Ctx, phase == PhaseSW, sgl.Addr(), spinlock.CodeSGLHeld, body)
	if status == 0 {
		t.Obs.AttemptCommit(t.Ctx.Clock())
	} else {
		path.Aborts[status.Cause()]++
		t.Obs.AttemptAbort(t.Ctx.Clock(), status)
	}
	return status
}

// runSGL executes body under the single-global lock on the software path.
func runSGL(t *Thread, sgl spinlock.Lock, body func(mem.Access)) {
	t.Obs.Fallback(t.Ctx.Clock())
	t.acquire(sgl)
	body(t.Direct)
	sgl.Release(t.Ctx, t.Mem)
	t.commit(ModeSGL)
	t.Obs.FallbackEnd(t.Ctx.Clock())
}

// --- HLE ---

// HLE models hardware lock elision: RTM's loop with a budget of one
// attempt. An elided spinlock acquisition spins until the lock is observed
// free, then elides once (the hardware's retry budget is minimal and not
// software-controlled); any abort falls back to acquiring the lock for
// real, which aborts every concurrent elision — the lemming effect that
// convoys the system onto the lock.
type HLE struct{ RTM }

// NewHLE builds HLE on the single-global lock sgl.
func NewHLE(sgl spinlock.Lock) *HLE { return &HLE{RTM{SGL: sgl, MaxAttempts: 1}} }

// Name implements Policy.
func (p *HLE) Name() string { return "HLE" }

// --- RTM ---

// RTM is the standard software retry loop used with Intel TSX: up to
// MaxAttempts hardware attempts, waiting for the single-global lock to be
// free before each (lemming avoidance), then the SGL fall-back. With its
// single lock and global contention response this is the ATS-like
// baseline of the paper.
type RTM struct {
	SGL         spinlock.Lock
	MaxAttempts int
}

// Name implements Policy.
func (p *RTM) Name() string { return "RTM" }

// Run implements Policy.
func (p *RTM) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		if attempt(t, p.SGL, PhaseHW, body) == 0 {
			t.commit(ModeHTM)
			return
		}
	}
	runSGL(t, p.SGL, body)
}

// --- SCM ---

// SCM implements Software-assisted Conflict Management (Afek et al.,
// PODC 2014): a transaction that aborts acquires an auxiliary lock before
// retrying in hardware, so at most one previously-aborted transaction runs
// at a time, curing the lemming effect at the cost of serializing all
// restarting transactions behind one lock.
type SCM struct {
	SGL         spinlock.Lock
	Aux         spinlock.Lock
	MaxAttempts int
}

// Name implements Policy.
func (p *SCM) Name() string { return "SCM" }

// Run implements Policy.
func (p *SCM) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	mode := ModeHTM // ModeHTMAux once this transaction holds the auxiliary lock
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		if attempt(t, p.SGL, PhaseHW, body) == 0 {
			if mode == ModeHTMAux {
				p.Aux.Release(t.Ctx, t.Mem)
			}
			t.commit(mode)
			return
		}
		if mode == ModeHTM && attempts > 1 {
			t.acquire(p.Aux)
			mode = ModeHTMAux
		}
	}
	if mode == ModeHTMAux {
		p.Aux.Release(t.Ctx, t.Mem)
	}
	runSGL(t, p.SGL, body)
}

// --- Seer ---

// Seer drives the scheduler of internal/core through the retry loop of
// the paper's Algorithms 1 and 2.
type Seer struct {
	SGL         spinlock.Lock
	MaxAttempts int
	Sched       *core.Seer
}

// Name implements Policy.
func (p *Seer) Name() string { return "Seer" }

// BeginRun starts a Run of the scheduler (core.Seer.BeginRun).
func (p *Seer) BeginRun() { p.Sched.BeginRun() }

// Run implements Policy.
func (p *Seer) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	ts := t.Seer
	p.Sched.Start(ts, txID, obj)
	attempts := p.MaxAttempts
	for {
		waitStart, waitSkipped := t.lockWaitBegin()
		p.Sched.WaitLocks(ts, txID, p.SGL)
		t.lockWaitEnd(waitStart, waitSkipped)
		status := speculate(t, p.SGL, PhaseHW, body) // WaitLocks waited out the SGL
		if status == 0 {
			p.Sched.RegisterCommit(ts, txID)
			t.commit(seerMode(ts))
			p.Sched.ReleaseLocks(ts)
			p.Sched.Finish(ts)
			return
		}
		p.Sched.RegisterAbort(ts, txID)
		attempts--
		if attempts == 0 {
			p.Sched.ReleaseLocks(ts)
			runSGL(t, p.SGL, body)
			p.Sched.Finish(ts)
			return
		}
		acqStart, acqSkipped := t.lockWaitBegin()
		p.Sched.AcquireLocks(ts, txID, status, attempts)
		t.lockWaitEnd(acqStart, acqSkipped)
	}
}

// seerMode classifies a hardware commit by the Seer locks held.
func seerMode(ts *core.ThreadState) Mode {
	switch {
	case ts.HoldsTxLocks() && ts.AcquiredCoreLock:
		return ModeHTMTxCore
	case ts.HoldsTxLocks():
		return ModeHTMTx
	case ts.AcquiredCoreLock:
		return ModeHTMCore
	default:
		return ModeHTM
	}
}

// --- Sequential baseline ---

// Sequential executes bodies directly with no transactions or locks; the
// harness uses it single-threaded as the paper's "sequential
// non-instrumented" speedup baseline.
type Sequential struct{}

// Name implements Policy.
func (p *Sequential) Name() string { return "seq" }

// Run implements Policy.
func (p *Sequential) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	t.commit(ModeHTM) // counted as plain executions
	body(t.Direct)
}
