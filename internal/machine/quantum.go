package machine

// Speculative multi-tick quanta (DESIGN.md §6i).
//
// The tick-batching fast path (§6b) lets a thread advance only while its
// clock stays strictly below the conflict-free horizon; the first tick at
// or past the horizon still pays a full yield/resume coroutine round-trip,
// and at wide shapes those switches are the dominant engine cost. §6b also
// argues that batching *past* the horizon is unsound in general: an
// earlier-virtual-time thread may doom the batching thread mid-window, and
// the published side effects cannot be taken back.
//
// Quanta recover the opportunity for the subset of ticks where rollback is
// actually possible: PURE ticks (Ctx.TickPure), which advance the clock and
// owe the engine a tick-hook observation but neither read nor write any
// shared simulator state. When a pure tick crosses the horizon and the
// engine has granted a speculative quantum, the tick is not executed
// against the world at all — it is journaled (cycle + PRNG state at entry)
// into a fixed per-thread undo log, and the thread keeps running without
// yielding. The speculation closes at the first impure tick (or park, or
// body return), at which point the thread yields once and enters the
// replaying state: the engine re-delivers each deferred tick as an
// ordinary (cycle, id) event that is popped in global (cycle, id) order
// and fires the tick hook exactly as the per-tick engine would have — but
// without a coroutine switch, which is the entire performance win.
//
// If an earlier-virtual-time thread dooms the speculating thread while it
// is replaying, Interfere rolls the journal back to the
// interference point: the undelivered ticks are truncated (their hooks
// never fire), the clock and PRNG are restored from the journal entry at
// the replay cursor, and the thread's next resume unwinds through the
// registered unwinder — delivering the abort at exactly the (cycle, id)
// position where the per-tick engine would have delivered it. Every
// observable stream (tick-hook sequence, schedules, PRNG draws, reports)
// is therefore byte-identical to the per-tick engine; see DESIGN.md §6i
// for the full observation-equivalence argument.

// specJournal is the per-thread undo log backing speculative quanta. Both
// arrays are allocated once at engine construction (capacity SpecQuantum),
// so the speculation path performs zero steady-state allocations.
type specJournal struct {
	cycles []uint64 // virtual cycle of each deferred tick, in issue order
	rngs   []Rand   // PRNG state at entry to each deferred tick
	n      int32    // deferred ticks currently journaled
	next   int32    // replay cursor: deferred ticks already re-delivered
}

// TickPure advances the thread's virtual clock by cost cycles like Tick,
// but declares the tick PURE: it has no effect on any state another
// thread could observe (no memory-registry traffic, no lock words, no
// shared counters) beyond the clock itself and the engine's tick hook.
// Pure ticks are the only ticks eligible for speculative quanta: past the
// batch horizon, with Config.SpecQuantum > 0, the tick is journaled and
// deferred instead of yielding, up to SpecQuantum ticks per quantum.
//
// With SpecQuantum == 0 TickPure is bit-for-bit identical to Tick.
func (c *Ctx) TickPure(cost uint64) {
	c.clock += cost
	if c.clock < c.batchLimit {
		c.eng.observe(c.clock)
		return
	}
	if c.specCap > 0 && c.clock < c.eng.maxCap && c.spec.n < c.specCap {
		// Defer the tick into the journal and keep running. The clock
		// guard keeps livelock verdicts on the per-tick schedule: a tick
		// past the MaxCycles budget always yields so the engine loop can
		// deliver ErrMaxCycles at the same event it always did.
		j := &c.spec
		if j.n == 0 {
			c.eng.count.QuantumGrants++ // the first deferred tick opens a quantum
		}
		j.cycles[j.n] = c.clock
		j.rngs[j.n] = c.rng
		j.n++
		c.eng.count.QuantumTicks++
		return
	}
	c.suspend()
}

// EndQuantum closes an open speculative quantum, if any: the thread yields
// once and the engine replays the journaled ticks as ordinary events
// before resuming it at the current clock. Callers that are about to make
// a speculated decision irreversible (e.g. deliver a spurious abort drawn
// from the PRNG, or observe a doom flag) must call EndQuantum first, so
// that any rollback triggered during the replay rewinds the decision
// along with the clock and PRNG state.
//
// When the quantum's most recent deferred tick sits exactly at the current
// clock it is un-deferred and becomes the live yield itself — the caller
// is still inside that tick, so the per-tick engine would have made it the
// scheduling point. Without an open quantum (an empty journal) the call is
// a no-op, so control-flow points the journal must not cross — parking, a
// delegated acquire, body return — call it unconditionally.
func (c *Ctx) EndQuantum() {
	j := &c.spec
	if j.n == 0 {
		return
	}
	if j.cycles[j.n-1] == c.clock {
		j.n--
		c.eng.count.QuantumTicks--
	}
	c.suspend()
}

// Interfere notifies the thread that an earlier-virtual-time action (a
// transaction doom under requester-wins conflict detection) has
// invalidated its speculation. Outside a journal replay this is a no-op:
// the thread's next instruction-boundary check observes the doom exactly
// as in the per-tick engine. Mid-replay, the journal is rolled back to the
// replay cursor — the first deferred tick whose hook has not fired — and
// the thread's clock and PRNG are restored from that entry. The engine's
// next resume of the thread then panics with the registered unwinder's
// payload instead of returning from the tick, delivering the abort at the
// same (cycle, id) position the per-tick schedule delivers it.
func (c *Ctx) Interfere() {
	if c.state != replaying || c.spec.next >= c.spec.n {
		return
	}
	j := c.spec.next
	c.eng.count.Rollbacks++
	c.eng.count.RollbackTicks += uint64(c.spec.n - j)
	c.rng = c.spec.rngs[j]
	c.clock = c.spec.cycles[j]
	c.spec.n = j // truncate: the undelivered ticks never happened
	if c.unwinder == nil {
		panic("machine: speculative rollback with no unwinder registered")
	}
	c.unwindPayload = c.unwinder()
	c.specUnwind = true
}

// SetUnwinder installs the payload constructor used to unwind the
// thread's body after a speculative rollback. The HTM registers a
// constructor returning its pre-boxed abort signal, so a rolled-back
// thread aborts through the standard recover path without allocating.
// The constructor runs at the rollback (Interfere), with the thread's
// clock and PRNG already rewound; the thread panics with its result at its
// next resume (suspend).
func (c *Ctx) SetUnwinder(fn func() any) { c.unwinder = fn }

// SpecBarrier closes the currently running thread's speculative quantum,
// if one is open. It exists for shared reads that have no scheduling point
// of their own — mem.Memory.Peek wires it as its speculation barrier —
// where the reading code holds no Ctx. A speculated read of a lock word
// (spinlock.LockedFast) would observe state from before earlier
// virtual-time threads ran; closing the quantum first replays the journal
// and re-runs the read at its true (cycle, id) position. Outside a resume
// (running == nil) and outside speculation the call is a no-op, so the
// hook is safe for engine- and test-side Peeks. The journal test in front
// of the call keeps the common no-quantum Peek to two loads.
func (e *Engine) SpecBarrier() {
	if t := e.running; t != nil && t.spec.n > 0 {
		t.EndQuantum()
	}
}
