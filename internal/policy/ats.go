package policy

import (
	"seer/internal/mem"
	"seer/internal/spinlock"
)

// ATS implements Adaptive Transaction Scheduling (Yoo & Lee, SPAA 2008),
// the one prior scheduler that — like Seer — needs no precise conflict
// feedback. Each thread maintains a contention intensity CI as an
// exponential moving average of its abort outcomes; when CI exceeds a
// threshold, the thread dispatches its transactions serially through a
// central scheduling lock. The paper classifies ATS as coarse-grained:
// one contention signal and one lock, so it alternates between full
// serialization and full concurrency. It is provided as an additional
// baseline beyond the paper's HLE/RTM/SCM trio.
type ATS struct {
	SGL         spinlock.Lock
	Sched       spinlock.Lock // central dispatch lock
	MaxAttempts int

	ci []float64 // per hardware thread contention intensity; learned, carries across Runs
}

// The original paper's parameters: the CI smoothing factor and the
// serialization trigger.
const (
	atsAlpha     = 0.75
	atsThreshold = 0.5
)

// NewATS builds an ATS policy for a machine with hwThreads hardware
// threads.
func NewATS(sgl, sched spinlock.Lock, maxAttempts, hwThreads int) *ATS {
	return &ATS{SGL: sgl, Sched: sched, MaxAttempts: maxAttempts, ci: make([]float64, hwThreads)}
}

// Name implements Policy.
func (p *ATS) Name() string { return "ATS" }

// CI returns a thread's current contention intensity (for tests).
func (p *ATS) CI(hw int) float64 { return p.ci[hw] }

func (p *ATS) observe(hw int, aborted bool) {
	if aborted {
		p.ci[hw] = atsAlpha*p.ci[hw] + (1 - atsAlpha)
	} else {
		p.ci[hw] = atsAlpha * p.ci[hw]
	}
}

// Run implements Policy.
func (p *ATS) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	hw := t.Ctx.ID()
	mode := ModeHTM // ModeHTMAux while dispatched serially through Sched
	if p.ci[hw] > atsThreshold {
		// High contention: dispatch serially through the central lock.
		t.acquire(p.Sched)
		mode = ModeHTMAux
	}
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		if attempt(t, p.SGL, PhaseHW, body) == 0 {
			p.observe(hw, false)
			t.commit(mode)
			if mode == ModeHTMAux {
				p.Sched.Release(t.Ctx, t.Mem)
			}
			return
		}
		p.observe(hw, true)
		// A thread that crosses the threshold mid-transaction joins the
		// serial queue before retrying, as in the original design.
		if mode == ModeHTM && p.ci[hw] > atsThreshold {
			t.acquire(p.Sched)
			mode = ModeHTMAux
		}
	}
	if mode == ModeHTMAux {
		p.Sched.Release(t.Ctx, t.Mem)
	}
	runSGL(t, p.SGL, body)
}
