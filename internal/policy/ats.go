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
	// Alpha is the CI smoothing factor (0.75 in the original paper);
	// Threshold is the serialization trigger (0.5).
	Alpha     float64
	Threshold float64

	ci []float64 // per hardware thread contention intensity
}

// NewATS builds an ATS policy with the original paper's parameters.
func NewATS(sgl, sched spinlock.Lock, maxAttempts, hwThreads int) *ATS {
	return &ATS{
		SGL:         sgl,
		Sched:       sched,
		MaxAttempts: maxAttempts,
		Alpha:       0.75,
		Threshold:   0.5,
		ci:          make([]float64, hwThreads),
	}
}

// Name implements Policy.
func (p *ATS) Name() string { return "ATS" }

// CI returns a thread's current contention intensity (for tests).
func (p *ATS) CI(hw int) float64 { return p.ci[hw] }

func (p *ATS) observe(hw int, aborted bool) {
	if aborted {
		p.ci[hw] = p.Alpha*p.ci[hw] + (1 - p.Alpha)
	} else {
		p.ci[hw] = p.Alpha * p.ci[hw]
	}
}

// Run implements Policy.
func (p *ATS) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	hw := t.Ctx.ID()
	serialized := false
	if p.ci[hw] > p.Threshold {
		// High contention: dispatch serially through the central lock.
		start, skipped := t.lockWaitBegin()
		p.Sched.Acquire(t.Ctx, t.Mem)
		t.lockWaitEnd(start, skipped)
		serialized = true
	}
	defer func() {
		if serialized {
			p.Sched.Release(t.Ctx, t.Mem)
		}
	}()

	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		if p.SGL.LockedFast(t.Mem) {
			spinSGL(t, p.SGL)
		}
		if attempt(t, p.SGL, PhaseHW, body) == 0 {
			p.observe(hw, false)
			if serialized {
				t.commit(ModeHTMAux)
			} else {
				t.commit(ModeHTM)
			}
			return
		}
		p.observe(hw, true)
		// A thread that crosses the threshold mid-transaction joins the
		// serial queue before retrying, as in the original design.
		if !serialized && p.ci[hw] > p.Threshold {
			start, skipped := t.lockWaitBegin()
			p.Sched.Acquire(t.Ctx, t.Mem)
			t.lockWaitEnd(start, skipped)
			serialized = true
		}
	}
	if serialized {
		p.Sched.Release(t.Ctx, t.Mem)
		serialized = false
	}
	runSGL(t, p.SGL, body)
}
