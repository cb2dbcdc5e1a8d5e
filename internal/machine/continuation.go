package machine

// Engine-side continuations (DESIGN.md §6b, the stepping state).
//
// Some protocols a thread runs are fixed state machines over ticks: the
// thread learns nothing at a resume between their ticks that the engine
// does not already know. The engine therefore runs them on the thread's
// behalf. The coroutine executes the protocol inline (with the exact
// per-tick hook and side effects) while its ticks stay below the batch
// horizon; the first tick at or past the horizon suspends it, and from
// then on every protocol step executes inside the event loop at the pop of
// the thread's own (cycle, id) event — the same schedule position, the
// same hook firings, the same memory side effects at the same cycles —
// without resuming the coroutine. A poll that observes its word busy parks
// the thread like ParkOnWord, with the continuation still set, so the wake
// queues it polling and the loop runs that poll too. The coroutine resumes
// exactly once, when the protocol completes. Three protocols use it:
//
//   - the test-and-test-and-set acquire (AcquireWord, acquire.go);
//   - the wait until a lock word is free (WaitWord), which resumes the
//     coroutine once, with the verdict;
//   - a caller's Protocol (Delegate): the HTM attempt prologue.
//
// This is delegation, not speculation: every step executes at its true
// (cycle, id) position with the real operations, so no undo log is needed
// and the observable streams are byte-identical to the per-tick engine.

// contKind is the engine-side protocol a thread is suspended in.
type contKind uint8

const (
	contNone    contKind = iota // user code runs: no continuation
	contAcquire                 // AcquireWord: poll and CAS until the winning store
	contWait                    // WaitWord: poll until the word is free or the budget runs out
	contProto                   // Delegate: the caller's Protocol
)

// noDeadline is the final poll boundary of an unbounded wait.
const noDeadline = ^uint64(0)

// Protocol is a fixed sequence of ticks whose actions the engine may run
// on a thread's behalf (Ctx.Delegate). Both methods are called with the
// thread's clock and hooks exactly where a coroutine issuing the ticks
// itself would have them. They must not tick, park or wake.
type Protocol interface {
	// StepCost returns the cost of the protocol's pending tick.
	StepCost() uint64
	// Step performs the pending tick's action once the tick has been
	// delivered, and reports whether the protocol ended with it.
	Step() (done bool)
}

// step status codes.
const (
	stepDone   = iota // the protocol completed at the delivered tick
	stepQueued        // the next tick crosses the horizon; deliver it at nextCycle
	stepBusy          // a poll observed the word busy; the thread must park on it
)

// tickCost returns the cost of the pending tick of thread t's
// continuation of kind k.
func (e *Engine) tickCost(t *Ctx, k contKind) uint64 {
	switch {
	case k == contProto:
		return t.proto.StepCost()
	case k == contAcquire && t.acqCAS:
		return e.cfg.Cost.LockOp
	}
	return e.cfg.Cost.DirectLoad // a poll
}

// step runs thread t's continuation: the one copy both the coroutine
// (horizon = its cached batch limit) and the event loop (horizon =
// horizonFor at the popped event) run. fired is true when the pending tick
// has already been delivered (the engine popped it: hook fired, MaxCycles
// checked, t.clock set) so only its action is due, false when it is yet to
// be issued. Ticks are issued inline while they stay below horizon, firing
// each tick's hook exactly as Ctx.Tick's fast path would.
func (e *Engine) step(t *Ctx, horizon uint64, fired bool) (nextCycle uint64, status int) {
	for ; ; fired = false {
		if !fired {
			nc := t.clock + e.tickCost(t, t.cont)
			if nc >= horizon {
				return nc, stepQueued
			}
			t.clock = nc
			e.observe(nc)
		}
		switch t.cont {
		case contAcquire:
			free := e.lockLoad(t.id, t.parkKey) == 0
			if t.acqCAS && free {
				e.lockStore(t.id, t.parkKey, t.acqOwner)
				if !e.herd.Empty() {
					e.settleHerd(t)
				}
				return 0, stepDone
			}
			if !t.acqCAS && !free {
				return 0, stepBusy
			}
			// A poll that saw the word free moves on to the CAS tick; a CAS
			// that lost the race to another acquirer goes back to polling.
			t.acqCAS = !t.acqCAS
		case contWait:
			if t.waitFree = e.lockLoad(t.id, t.parkKey) == 0; t.waitFree || t.clock >= t.parkDeadline {
				return 0, stepDone
			}
			// Park until a wake or, bounded, until the final poll boundary.
			t.parkPolls = 0
			if t.parkDeadline != noDeadline {
				t.parkPolls = int((t.parkDeadline - t.clock) / t.parkPeriod)
			}
			return 0, stepBusy
		default:
			if t.proto.Step() {
				return 0, stepDone
			}
		}
	}
}

// enter runs the thread's continuation of kind k, just set up, from its
// first tick: inline while its ticks stay below the horizon, then in the
// event loop with the coroutine suspended until the protocol completes. A
// speculative quantum still open makes the first tick yield as Ctx.Tick
// would, so the loop replays the journal first; the continuation is set
// only once that tick returns, so a thread suspended in it is a plain one,
// and a rollback unwinding from it leaves no continuation behind.
func (c *Ctx) enter(k contKind) {
	e := c.eng
	fired := false
	if c.spec.n > 0 {
		c.Tick(e.tickCost(c, k))
		fired = true
	}
	c.cont = k
	nc, status := e.step(c, c.batchLimit, fired)
	switch status {
	case stepDone:
		c.cont = contNone
		return
	case stepBusy:
		c.sleep()
	default:
		// The pending tick becomes the thread's queued event, exactly as
		// the per-tick yield would have queued it.
		c.clock = nc
		c.setState(stepping)
	}
	// The loop resumes the coroutine once the protocol has completed.
	c.suspend()
}

// WaitWord waits until the lock word key names is observed free: the
// engine-side form of
//
//	for i := 0; ; { Tick(pollCost); if load == 0 { return true }
//	                if i >= maxSpins { return false }; park bounded }
//
// with the spin-lock poll period and pollCost = DirectLoad, polls parked
// between boundaries like ParkOnWord. A negative maxSpins waits
// unboundedly. ok reports false — having done nothing — when the engine
// has no lock-word operations installed or delegation is off; the caller
// then runs its own ticking loop. Schedules and all observable streams are
// identical either way.
func (c *Ctx) WaitWord(key uint64, maxSpins int) (free, ok bool) {
	e := c.eng
	if e.lockLoad == nil || !e.delegation {
		return false, false
	}
	cost := &e.cfg.Cost
	period := cost.SpinQuantum + cost.DirectLoad
	c.parkKey, c.parkPeriod, c.parkPollCost = key, period, cost.DirectLoad
	// A bounded wait gives up at the poll that consumes its budget: the
	// final boundary, its park deadline, stays put however the wakes in
	// between fall.
	c.parkDeadline = noDeadline
	if maxSpins >= 0 {
		c.parkDeadline = c.clock + cost.DirectLoad + period*uint64(maxSpins)
	}
	c.enter(contWait)
	return c.waitFree, true
}

// Delegate runs protocol p on the thread, engine-side as far as the
// horizon allows, and returns once p has completed. It reports false —
// having done nothing — when delegation is off; the caller then issues the
// ticks itself.
func (c *Ctx) Delegate(p Protocol) bool {
	if !c.eng.delegation {
		return false
	}
	c.proto = p
	c.enter(contProto)
	return true
}

// SetDelegation turns the wait continuation and Delegate on (the default)
// or off. Off, WaitWord and Delegate report false: the reference their
// equivalence is checked against. AcquireWord is unaffected.
func (e *Engine) SetDelegation(on bool) { e.delegation = on }
