package machine

// Engine-side lock acquisition (DESIGN.md §6b, the acquiring state).
//
// The test-and-test-and-set acquire protocol — a poll tick plus load, then
// a CAS tick plus load-and-store — is a fixed state machine over one
// simulated word, so the thread learns nothing at a resume between its
// ticks that the engine does not already know. AcquireWord therefore lets
// the event loop run the protocol on the thread's behalf. The coroutine
// executes the loop inline (with the exact per-tick hook and doom
// semantics) while its ticks stay below the batch horizon; the first tick
// at or past the horizon suspends it, and from then on every protocol
// step executes inside Engine.Run at the pop of the thread's own
// (cycle, id) event — the same schedule position, the same hook firings,
// the same DirectLoad/DirectStore side effects at the same cycles —
// without resuming the coroutine. A poll that observes the word busy
// parks the thread like ParkOnWord, with acq as the park's continuation,
// so the wake queues it polling and the loop runs that poll too. This is
// the one place the engine polls a lock word. The coroutine resumes
// exactly once, after the winning store, and AcquireWord returns with the
// lock held.
//
// This is delegation, not speculation: nothing runs ahead of virtual
// time, so no undo log is needed and the observable streams are
// byte-identical to the per-tick engine by construction.

// acquireStep status codes.
const (
	acqDone   = iota // winning store executed; the acquire is complete
	acqQueued        // next protocol tick crosses the horizon; deliver it at nextCycle
	acqBusy          // poll observed the word busy; the thread must park on it
)

// SetLockWordOps installs the committed-memory operations the event loop
// uses to execute delegated acquires (Ctx.AcquireWord): load(hw, key)
// performs a non-transactional load of the word key names on behalf of
// hardware thread hw — including its strong-isolation doom side effects —
// and store the matching non-transactional store. The runtime installs
// mem.Memory.DirectLoad/DirectStore on the lock word. Install both before
// Run; without them AcquireWord reports false and callers fall back to
// their ticking loop.
func (e *Engine) SetLockWordOps(load func(hw int, key uint64) uint64, store func(hw int, key uint64, v uint64)) {
	e.lockLoad, e.lockStore = load, store
}

// AcquireWord acquires the spin-lock word key names via test-and-test-
// and-set, storing owner on success: the engine-side form of
//
//	for { Tick(pollCost); if load != 0 { park; continue }
//	      Tick(lockOp); if load == 0 { store(owner); return } }
//
// with pollCost/lockOp from the engine's cost model. It reports false —
// having done nothing — when the engine has no lock-word operations
// installed; the caller then runs its own ticking loop. Schedules and all
// observable streams are identical either way.
func (c *Ctx) AcquireWord(key, owner uint64) bool {
	e := c.eng
	if e.lockLoad == nil {
		return false
	}
	// A suspended delegation leaves the schedule like a park does: any
	// open speculative quantum must replay first.
	c.EndQuantum()
	// The protocol parks on its word with the spin-lock poll period.
	cost := &e.cfg.Cost
	c.parkKey, c.parkPeriod, c.parkPollCost, c.parkPolls = key, cost.SpinQuantum+cost.DirectLoad, cost.DirectLoad, 0
	c.acqCAS, c.acqOwner = false, owner
	nc, status := e.acquireStep(c, c.batchLimit, false)
	if status == acqDone {
		return true
	}
	// Hand the rest of the protocol to the event loop; the coroutine stays
	// suspended until the acquire completes, so this resume is the return
	// from a completed acquire.
	c.acq = true
	if status == acqBusy {
		c.sleep()
	} else {
		// The pending tick becomes the thread's queued event, exactly as
		// the per-tick yield would have queued it.
		c.clock = nc
		c.setState(acquiring)
	}
	c.suspend()
	return true
}

// acquireStep is the test-and-test-and-set protocol, the one copy both the
// coroutine (AcquireWord, horizon = its cached batch limit) and the event
// loop (Engine.Run, horizon = horizonFor at the popped event) run. The
// protocol's position is t.acqCAS — whether the current tick is the CAS
// tick or the poll tick — and fired: true when that tick has already been
// delivered (the engine popped it: hook fired, MaxCycles checked, t.clock
// set) so only its action is due, false when it is yet to be issued. Ticks
// are issued inline while they stay below horizon, firing each tick's hook
// exactly as Ctx.Tick's fast path would. It returns acqDone after the
// winning store, acqQueued with the tick's cycle when a tick crosses the
// horizon, or acqBusy when a poll observed the word held.
func (e *Engine) acquireStep(t *Ctx, horizon uint64, fired bool) (nextCycle uint64, status int) {
	cost := &e.cfg.Cost
	for ; ; fired = false {
		if !fired {
			nc := t.clock + cost.DirectLoad
			if t.acqCAS {
				nc = t.clock + cost.LockOp
			}
			if nc >= horizon {
				return nc, acqQueued
			}
			t.clock = nc
			if e.tickHook != nil {
				e.tickHook(nc)
			}
		}
		free := e.lockLoad(t.id, t.parkKey) == 0
		if t.acqCAS && free {
			e.lockStore(t.id, t.parkKey, t.acqOwner)
			return 0, acqDone
		}
		if !t.acqCAS && !free {
			return 0, acqBusy
		}
		// A poll that saw the word free moves on to the CAS tick; a CAS that
		// lost the race to another acquirer goes back to polling.
		t.acqCAS = !t.acqCAS
	}
}
