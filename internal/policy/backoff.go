package policy

import (
	"slices"

	"seer/internal/mem"
	"seer/internal/spinlock"
)

// Backoff implements randomized exponential backoff, the contention
// manager whose competitive bounds Alistarh et al. analyze in "The
// Transactional Conflict Problem": an aborted transaction waits a random
// number of cycles drawn uniformly from a per-thread window before
// retrying in hardware; the window doubles on every abort (up to a cap)
// and halves on every commit (down to a floor). It sits between blind
// retry (RTM) and precise serialization (Seer/Oracle): no conflict
// information is used, only the abort signal itself, yet the randomized
// waits de-synchronize conflicting threads with high probability.
//
// The wait is one tick of the drawn length, so the engine advances the
// virtual clock in one jump instead of simulating spin iterations, and
// nothing can end it early. Waits draw from the thread's deterministic
// PRNG stream, so schedules — and the telemetry timeline — stay
// bit-for-bit reproducible for a fixed seed.
type Backoff struct {
	SGL         spinlock.Lock
	MaxAttempts int

	win  []uint64 // per hardware thread: current window (cycles); learned, carries across Runs
	peak uint64   // the largest window any thread has reached in this Run
}

// The per-thread window's bounds in cycles: one cache-miss-ish minimum up
// to roughly the cost of a few contended transactions. The window never
// exceeds maxWindow (the property tests pin this) and never shrinks below
// minWindow.
const (
	minWindow uint64 = 64
	maxWindow uint64 = 16384
)

// NewBackoff builds a Backoff policy for a machine with hwThreads
// hardware threads.
func NewBackoff(sgl spinlock.Lock, maxAttempts, hwThreads int) *Backoff {
	p := &Backoff{SGL: sgl, MaxAttempts: maxAttempts, win: make([]uint64, hwThreads), peak: minWindow}
	for i := range p.win {
		p.win[i] = minWindow
	}
	return p
}

// Name implements Policy.
func (p *Backoff) Name() string { return "Backoff" }

// Window returns a thread's current backoff window in cycles (for tests
// and reports).
func (p *Backoff) Window(hw int) uint64 { return p.win[hw] }

// BeginRun restarts the peak at the largest current window, so PeakWindow
// covers the Run about to start; the windows carry over (DESIGN §6f).
func (p *Backoff) BeginRun() { p.peak = slices.Max(p.win) }

// PeakWindow returns the largest window any thread has reached in the
// current Run. The sleeps themselves are counted in each thread's ledger
// (Thread.BackoffWaits, BackoffCycles).
func (p *Backoff) PeakWindow() uint64 { return p.peak }

// grow doubles a thread's window after an abort, saturating at maxWindow.
func (p *Backoff) grow(hw int) {
	p.win[hw] = min(p.win[hw]*2, maxWindow)
	p.peak = max(p.peak, p.win[hw])
}

// shrink halves a thread's window after a commit, flooring at minWindow.
func (p *Backoff) shrink(hw int) { p.win[hw] = max(p.win[hw]/2, minWindow) }

// wait sleeps the thread for a uniform random draw from [1, window]
// cycles: one Tick(d), a timed sleep that ends at exactly clock+d with no
// waker involved. Its cycles are counted as backoff, not as parked lock
// wait.
func (p *Backoff) wait(t *Thread, hw int) {
	d := 1 + t.Ctx.Rand().Uint64()%p.win[hw]
	t.Ctx.Tick(d)
	t.BackoffWaits++
	t.BackoffCycles += d
}

// Run implements Policy: the RTM retry loop with a randomized
// exponential-backoff wait between hardware attempts.
func (p *Backoff) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	hw := t.Ctx.ID()
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		if attempt(t, p.SGL, PhaseHW, body) == 0 {
			p.shrink(hw)
			t.commit(ModeHTM)
			return
		}
		p.grow(hw)
		if attempts > 1 {
			p.wait(t, hw)
		}
	}
	runSGL(t, p.SGL, body)
}
