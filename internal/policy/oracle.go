package policy

import (
	"seer/internal/mem"
	"seer/internal/spinlock"
)

// Oracle is a precise-feedback scheduler in the spirit of CAR-STM and
// Steal-on-Abort: an aborted transaction is serialized *behind the exact
// transaction that aborted it* — it waits until that thread's current
// hardware transaction finishes before retrying.
//
// No commodity HTM can implement this (the abort feedback never names the
// conflictor — the premise of the paper); the policy exists because the
// simulator can cheat and reveal the true conflictor (htm.LastConflictor).
// Comparing Oracle against Seer quantifies how much of the value of
// precise feedback Seer's probabilistic inference recovers from coarse
// feedback alone.
type Oracle struct {
	SGL         spinlock.Lock
	MaxAttempts int
}

// oracleWaitBudget bounds the spin on the conflictor, in SpinQuantum
// polls (the wait is advisory).
const oracleWaitBudget = 256

// NewOracle builds the oracle policy with the standard retry budget.
func NewOracle(sgl spinlock.Lock, maxAttempts int) *Oracle {
	return &Oracle{SGL: sgl, MaxAttempts: maxAttempts}
}

// Name implements Policy.
func (p *Oracle) Name() string { return "Oracle" }

// Run implements Policy.
func (p *Oracle) Run(t *Thread, txID int, obj uint64, body func(mem.Access)) {
	for attempts := p.MaxAttempts; attempts > 0; attempts-- {
		status := attempt(t, p.SGL, PhaseHW, body)
		if status == 0 {
			t.commit(ModeHTM)
			return
		}
		if status.Conflict() {
			// Precise feedback: wait for the exact conflictor's
			// transaction to complete before retrying (Steal-on-Abort's
			// serialize-after-enemy, adapted to threads that own their
			// own work).
			if c := t.HTM.LastConflictor(t.Ctx.ID()); c >= 0 {
				cost := t.Ctx.Cost().SpinQuantum
				for i := 0; i < oracleWaitBudget && t.HTM.Active(c); i++ {
					t.Ctx.Tick(cost)
				}
			}
		}
	}
	runSGL(t, p.SGL, body)
}
