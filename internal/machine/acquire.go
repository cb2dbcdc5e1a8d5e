package machine

// Engine-side lock acquisition (DESIGN.md §6b): the test-and-test-and-set
// protocol as a continuation (continuation.go), and the lazy herd.
//
// The protocol — a poll tick plus load, then a CAS tick plus
// load-and-store — is a fixed state machine over one simulated word, so
// AcquireWord hands it to the engine. A poll that observes the word busy
// parks the thread with the continuation set, so the wake queues it
// polling and the loop runs that poll too; the continuation's step
// (Engine.step) is the one place the engine loads or stores a lock word.
// The coroutine resumes exactly once, after the winning store, and
// AcquireWord returns with the lock held. A release queues only the
// acquirer that can win (Ctx.WakeKey), and the winning store settles the
// others' losing steps in closed form (settleHerd): the one exception to
// "every step at its true position", and no other thread can observe
// those steps.

// SetLockWordOps installs the committed-memory operations the event loop
// uses to execute the acquire and wait continuations (Ctx.AcquireWord,
// Ctx.WaitWord): load(hw, key) performs a non-transactional load of the
// word key names on behalf of hardware thread hw — including its
// strong-isolation doom side effects — and store the matching
// non-transactional store. The runtime installs
// mem.Memory.DirectLoad/DirectStore on the lock word. Install both before
// Run; without them AcquireWord and WaitWord report false and callers fall
// back to their ticking loops.
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
	c.enter(contAcquire)
	return true
}

// settleHerd runs the protocol of every acquirer deferred on w's word from
// its recorded poll boundary b, in closed form, once w's winning store
// lands at (s, w). Each of them loses: w polled at or before the first
// boundary, so every deferred CAS lands after s, and the word stays held
// until at least s + LockOp, since only its holder stores it. Their loads
// doom nobody: the only transactional writer of a lock word
// (spinlock.AcquireTx) reads it first and aborts on a held one. A poll
// ordered after the store reads the word held and re-parks at b; an
// earlier one read it free, and its CAS at b + LockOp fails and the poll
// after it re-parks at b + LockOp + DirectLoad. A step at or past
// s + LockOp (or the MaxCycles cap) is not settled: it is queued as the
// event eager wakes would have left queued.
func (e *Engine) settleHerd(w *Ctx) {
	cost := &e.cfg.Cost
	store := event{cycle: w.clock, id: int32(w.id)}.key()
	lim := min(w.clock+cost.LockOp, e.maxCap)
	e.herd.ForEach(func(id int) {
		t := e.threads[id]
		if t.parkKey != w.parkKey {
			return
		}
		e.herd.Remove(id)
		b := t.herdB
		steps := [3]uint64{b, b + cost.LockOp, b + cost.LockOp + cost.DirectLoad} // poll, CAS, re-poll
		n := 3
		if (event{cycle: b, id: int32(id)}).key() < store {
			n = 1 // the poll follows the store
		} else if (event{cycle: steps[1], id: int32(id)}).key() > store {
			panic("machine: a deferred acquirer's CAS precedes the winning store")
		}
		for i, c := range steps[:n] {
			if c >= lim {
				e.herdStep(t, b, c, i)
				return
			}
		}
		t.skipTo(b)
		t.herdB, t.clock = 0, steps[n-1]
		e.count.Settled++
	})
	w.batchLimit = e.horizonFor(int32(w.id))
}

// herdStep takes deferred acquirer t, woken at boundary b, off the herd
// and queues protocol step i at cycle c — 0 the poll at b, 1 the CAS, 2
// the re-poll after a lost CAS — as the event eager wakes would have
// queued.
func (e *Engine) herdStep(t *Ctx, b, c uint64, i int) {
	if i == 0 {
		e.wake(t, b)
		return
	}
	t.skipTo(b)
	t.herdB, t.clock, t.acqCAS = 0, c, i == 1
	t.setState(stepping)
	e.queue.push(event{cycle: c, id: int32(t.id)})
}

// MaterializeHerd queues every acquirer deferred on key's word where eager
// wakes had it at the caller's position: no store has reached the word
// since the release, so a deferred poll ordered before the caller has
// read it free and waits on its CAS at b + LockOp, and a later one is
// still due at b. spinlock.AcquireTx calls it right after its
// transactional write to a free lock word registers, so every doom the
// eager polls owe that transaction lands where it does with eager wakes.
func (c *Ctx) MaterializeHerd(key uint64) {
	e := c.eng
	pos := event{cycle: c.clock, id: int32(c.id)}.key()
	e.herd.ForEach(func(id int) {
		t := e.threads[id]
		if t.parkKey != key {
			return
		}
		e.herd.Remove(id)
		if b := t.herdB; (event{cycle: b, id: int32(id)}).key() > pos {
			e.herdStep(t, b, b+e.cfg.Cost.LockOp, 1)
		} else {
			e.wake(t, b)
		}
	})
	c.batchLimit = e.horizonFor(int32(c.id))
}
