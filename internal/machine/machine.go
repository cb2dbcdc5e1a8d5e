// Package machine implements a deterministic virtual-time multicore
// simulator. It is the substrate on which the simulated hardware
// transactional memory (internal/htm) and the Seer scheduler
// (internal/core) run.
//
// The engine hosts N hardware threads, each executing user code in a
// resumable execution context (a coroutine). Execution is cooperative: a
// thread runs exclusively until it calls Tick, at which point control
// switches back to the engine's event loop, which always resumes the
// runnable thread with the smallest virtual clock (ties broken by thread
// id) by popping the earliest (wakeup-cycle, thread-id) event off the
// event queue (eventqueue.go).
// Because exactly one thread executes between two scheduling points, all
// simulator state can be manipulated without synchronization, and whole
// runs are reproducible bit-for-bit for a fixed seed.
//
// The scheduler is a single event loop rather than one OS-scheduled
// goroutine per simulated thread: suspending and resuming a context is a
// direct coroutine switch (iter.Pull), not a channel handoff through the
// Go runtime's scheduler, which makes a scheduling step several times
// cheaper and keeps large experiment sweeps CPU-bound on the model rather
// than on synchronization.
//
// Virtual time is measured in cycles. Every simulated action has a cost
// from CostModel; a thread's clock advances by that cost at each Tick. The
// makespan of a run is the maximum clock over all threads, which is what
// the benchmark harness uses to compute speedups.
package machine

import (
	"errors"
	"fmt"
	"iter"

	"seer/internal/topology"
)

// CostModel assigns virtual-cycle costs to simulated actions. The absolute
// values are loosely modeled on a Haswell-class core (the paper's testbed);
// only ratios matter for the reproduced results.
type CostModel struct {
	Work        uint64 // one unit of non-memory application work
	TxLoad      uint64 // transactional load (L1 hit + tracking)
	TxStore     uint64 // transactional store (write buffering)
	DirectLoad  uint64 // non-transactional load
	DirectStore uint64 // non-transactional store
	XBegin      uint64 // starting a hardware transaction
	XEnd        uint64 // committing a hardware transaction
	AbortHandle uint64 // pipeline flush + status delivery on abort
	LockOp      uint64 // CAS for acquiring/releasing a lock
	SpinQuantum uint64 // one spin-wait iteration on a held lock
	StatsSlot   uint64 // scanning one activeTxs slot (Seer profiling)
	UpdateBase  uint64 // fixed cost of recomputing the lock scheme
	UpdatePair  uint64 // per-(x,y)-pair cost of recomputing the lock scheme
	STMBegin    uint64 // starting a software (STM) transaction attempt
	STMCommit   uint64 // software commit: publishing the write buffer
	STMLoad     uint64 // instrumented software transactional load
	STMStore    uint64 // instrumented software transactional store
}

// DefaultCostModel returns the cost model used throughout the evaluation.
// EXPERIMENTS.md ("Calibration notes") records what the transaction-path
// constants (XBegin, XEnd, AbortHandle, the memory accesses, Work) were
// set from; the lock, Seer-profiling and STM constants have no recorded
// calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		Work:        1,
		TxLoad:      2,
		TxStore:     3,
		DirectLoad:  2,
		DirectStore: 3,
		XBegin:      18,
		XEnd:        12,
		AbortHandle: 120,
		LockOp:      25,
		SpinQuantum: 25,
		StatsSlot:   1,
		UpdateBase:  400,
		UpdatePair:  6,
		// Software-mode costs: an STM attempt has no hardware begin/abort
		// machinery but pays per-access instrumentation (ownership
		// acquisition through the conflict registry) and a multi-line
		// commit publish — the classic HTM-vs-STM cost inversion.
		STMBegin:  10,
		STMCommit: 30,
		STMLoad:   6,
		STMStore:  8,
	}
}

// Config describes the simulated machine. The shape — sockets, cores,
// SMT threads — is a first-class topology.Topology value; all thread-
// and core-id arithmetic delegates to it.
type Config struct {
	Topo      topology.Topology // machine shape: sockets × cores × SMT
	Seed      int64             // seed for all per-thread PRNGs
	MaxCycles uint64
	Cost      CostModel
	// SpecQuantum is the speculative multi-tick quantum: the maximum
	// number of pure ticks (Ctx.TickPure) a thread may journal and run
	// past its batch horizon before yielding, with rollback on
	// interference (see quantum.go and DESIGN.md §6i). 0 disables
	// speculation; by design schedules and all observable streams are
	// identical either way (DESIGN.md §6i lists the known exception).
	SpecQuantum int
}

// DefaultConfig mirrors the paper's testbed: a 4-core, 8-hardware-thread
// Haswell Xeon E3-1275 (one socket, 2-way SMT).
func DefaultConfig() Config {
	return Config{
		Topo:      topology.SMT2(4),
		Seed:      1,
		MaxCycles: 0, // unlimited
		Cost:      DefaultCostModel(),
	}
}

// MaxHWThreads is the machine-wide hardware-thread ceiling. Occupancy
// masks and per-thread tables throughout the runtime are multi-word
// bitsets dimensioned by topology.MaxThreads; this re-export keeps the
// machine package the authority its callers size against.
const MaxHWThreads = topology.MaxThreads

// ErrTooManyThreads: the topology's thread count exceeds MaxHWThreads.
// Alias of the topology sentinel so callers can match either spelling.
var ErrTooManyThreads = topology.ErrTooManyThreads

// Validate reports whether the configuration is internally consistent.
// Failure modes wrap the topology package's named sentinel errors
// (ErrSockets, ErrCores, ErrSMT, ErrTooManyThreads).
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	return nil
}

// HWThreads returns the total hardware thread count.
func (c Config) HWThreads() int { return c.Topo.Threads() }

// PhysCores returns the total physical core count across all sockets.
func (c Config) PhysCores() int { return c.Topo.Cores() }

// PhysCore maps a hardware thread to its global physical core. Hardware
// threads t and t+PhysCores() are hyperthread siblings sharing one
// core's L1 cache, mirroring the enumeration order of Linux on Intel
// processors.
func (c Config) PhysCore(hwThread int) int { return c.Topo.CoreOf(hwThread) }

// Siblings returns the hardware thread ids sharing the physical core of
// hw (excluding hw itself).
func (c Config) Siblings(hw int) []int { return c.Topo.Siblings(hw) }

// ErrMaxCycles is returned by Engine.Run when a run exceeds
// Config.MaxCycles, which usually indicates a livelock in the simulated
// program — or, with no budget set, when a clock reaches 2^56 - 2, the
// last cycle the event queue orders exactly.
var ErrMaxCycles = errors.New("machine: run exceeded MaxCycles (livelock?)")

// ErrDeadlock is returned by Engine.Run when every remaining thread is
// parked on a wake key and no runnable thread is left to issue a wake —
// the event-driven equivalent of all threads spinning forever on locks
// whose holders are gone.
var ErrDeadlock = errors.New("machine: all remaining threads parked (deadlock)")

// Ctx is the execution context handed to the code running on one hardware
// thread. All simulated actions go through it.
type Ctx struct {
	id    int
	clock uint64
	rng   Rand
	eng   *Engine

	// yield suspends this context and hands (clock) back to the event
	// loop; it reports false when the engine has abandoned the run, in
	// which case the context must unwind. next/stop are the engine-side
	// resume and cancel handles. All three are live only during a Run.
	yield func(uint64) bool
	next  func() (uint64, bool)
	stop  func()

	// batchLimit is the precomputed tick-batch horizon: the first clock
	// value at which this thread must yield to the event loop. While
	// clock < batchLimit the thread is by construction conflict-free —
	// no other thread has a queued event ordered before it, so nothing
	// can doom it, observe it, or be observed by it — and Tick advances
	// through any number of quanta with a single comparison and no heap
	// interaction. The engine recomputes it from (queue min, MaxCycles)
	// before every resume, and WakeKey refreshes it when the running
	// thread re-inserts waiters (see Engine.horizonFor for the exact
	// (cycle, id) tie-break encoding).
	batchLimit uint64

	// Park state (see ParkOnWord). While parked, clock holds the cycle of
	// the last poll that observed the key busy; a wake fast-forwards it to
	// the first poll boundary scheduled after the waker.
	parkKey      uint64
	parkPeriod   uint64
	parkPollCost uint64
	parkDeadline uint64 // final-poll cycle of a bounded park or wait, noDeadline when unbounded
	parkSkipped  uint64 // cumulative virtual cycles fast-forwarded while parked

	// Continuation state (see continuation.go). cont is the engine-side
	// protocol the coroutine is suspended in, contNone while user code
	// runs, so a wake's poll continues the protocol engine-side instead of
	// resuming the thread. A protocol on a lock word parks on parkKey.
	// acqCAS marks an acquire's pending tick as the CAS (else the poll) and
	// acqOwner is the value its CAS stores; waitFree is a wait's verdict
	// (its final poll boundary is parkDeadline); proto is a delegated
	// Protocol.
	cont     contKind
	acqCAS   bool
	waitFree bool
	// state is the thread's place in the schedule; only setState writes it.
	// (Declared next to cont and the flags, whose padding it shares.)
	state    schedState
	acqOwner uint64
	proto    Protocol
	// herdB is the poll boundary a lazy wake deferred this acquirer to, 0
	// when none (see WakeKey): the thread stays parked until the word's
	// next store settles it (settleHerd) or a transactional write
	// materializes it (MaterializeHerd).
	herdB uint64

	// Speculative-quantum state (see quantum.go). specCap mirrors
	// Config.SpecQuantum; a running thread has a quantum open exactly when
	// its journal is non-empty (spec.n > 0). specUnwind arms the next
	// resume to panic with unwindPayload, the unwinder's payload, after a
	// rollback.
	specCap       int32
	specUnwind    bool
	spec          specJournal
	unwinder      func() any
	unwindPayload any

	panicked any
}

// schedState is a thread's place in the schedule: what its queued event,
// if it has one, asks of the event loop when it pops (DESIGN.md §6b).
type schedState uint8

const (
	runnable  schedState = iota // queued at its next tick (or running, or done): the pop resumes it
	parked                      // off the schedule until a wake; a bounded park's deadline stays queued
	polling                     // a woken continuation, queued at the poll boundary the loop runs its protocol from
	stepping                    // queued at a continuation tick the loop executes itself
	replaying                   // queued at a journaled pure tick the loop re-delivers
)

// setState moves t to state s. It is the only writer of t.state and of
// Engine.wakeable, which it keeps equal to the set of parked threads.
func (t *Ctx) setState(s schedState) {
	if s == parked {
		t.eng.wakeable.Add(t.id)
	} else if t.state == parked {
		t.eng.wakeable.Remove(t.id)
	}
	t.state = s
}

// errAbandonRun is the sentinel panic a context uses to unwind a body
// abandoned on an error path (yield returned false). It is recovered by
// the context's own trampoline, never seen by user code handlers that
// rethrow foreign panics (e.g. htm.Tx).
var errAbandonRun = errors.New("machine: run abandoned")

// ID returns the hardware thread id (0-based).
func (c *Ctx) ID() int { return c.id }

// Clock returns the thread's current virtual time in cycles.
func (c *Ctx) Clock() uint64 { return c.clock }

// Rand returns the thread's deterministic PRNG.
func (c *Ctx) Rand() *Rand { return &c.rng }

// Machine returns the configuration of the machine this thread runs on.
func (c *Ctx) Machine() Config { return c.eng.cfg }

// Cost returns the machine's cost model without copying the whole Config;
// per-access code holds on to it instead of calling Machine() in a loop.
// The model is immutable for the engine's lifetime.
func (c *Ctx) Cost() *CostModel { return &c.eng.cfg.Cost }

// Tick advances the thread's virtual clock by cost cycles and yields to
// the engine, which may schedule another thread. Every observable action
// of a simulated thread must pass through Tick: it is both the time
// accounting and the interleaving point.
//
// Fast path (tick batching): when the thread's new clock is still below
// its precomputed batch horizon, the engine's loop would push this
// thread's event and immediately pop it again — two coroutine switches
// that cannot change any observable state, since no other thread gets to
// run. In that case Tick performs the engine's per-step work itself (one
// comparison against the tick hook's deadline, and the hook if the cycle
// the popped event would have carried reaches it) and returns without
// suspending, so a conflict-free context advances through arbitrarily
// many poll quanta per heap interaction at the cost of two comparisons
// each. The horizon encodes both the queue minimum with the (cycle, id)
// tie-break and the MaxCycles livelock bound (a clock past MaxCycles
// always takes the yield so the engine loop can deliver the verdict); see
// Engine.horizonFor and DESIGN.md §6b for the observation-equivalence
// argument. This preserves the schedule
// bit-for-bit while eliminating the dominant cost of fine-grained ticks.
func (c *Ctx) Tick(cost uint64) {
	c.clock += cost
	if c.clock < c.batchLimit {
		c.eng.observe(c.clock)
		return
	}
	c.suspend()
}

// suspend hands control back to the event loop at the thread's current
// clock and returns when the engine next resumes the thread. If the engine
// has abandoned the run instead (yield reports false) the body unwinds via
// the errAbandonRun sentinel; a speculative rollback that struck while the
// thread was suspended (Interfere) is delivered at the resume, by
// panicking with the payload the rollback prepared. A yield with ticks
// still journaled closes the quantum: the loop replays them before the
// resume. Kept small enough to inline: every frame between a body and its
// yield costs a mispredicted return after the coroutine switch.
func (c *Ctx) suspend() {
	if !c.yield(c.clock) {
		panic(errAbandonRun)
	}
	if c.specUnwind {
		c.specUnwind = false
		panic(c.unwindPayload)
	}
}

// ParkOnWord suspends the thread until another thread calls WakeKey(key),
// replacing a busy-wait loop that polls one simulated memory word every
// period cycles. It is the event-driven form of
//
//	for { Tick(period - pollCost); Tick(pollCost); if free { break } }
//
// and must be called right after a poll (a Tick(pollCost) plus a load of
// key's word) that observed the word busy. The poll must have no
// observable effect beyond its tick while the word is busy — the
// spin-lock polls satisfy this: a busy lock word has no live
// transactional writer, so the load dooms nobody. The thread leaves the
// event queue; a subsequent WakeKey computes the first poll boundary
//
//	b = Clock() + k·period  (minimal k ≥ 1 scheduled after the waker)
//
// and queues the thread there with Clock() = b - pollCost. When that
// event pops the thread resumes, and its loop re-executes the polling
// Tick(pollCost) and load itself, at exactly the cycle and queue order the
// spin loop would have. The skipped cycles are added in one jump instead
// of period-sized steps, so virtual-time accounting is unchanged.
//
// maxPolls bounds the wait: after maxPolls further poll boundaries with
// no wake, the thread resumes at the final boundary on its own (returning
// with the word still busy, as a bounded spin loop would). maxPolls 0
// (or less) parks unboundedly; if every remaining thread is parked
// unboundedly, the run fails with ErrDeadlock.
func (c *Ctx) ParkOnWord(key, period, pollCost uint64, maxPolls int) {
	if period == 0 {
		panic("machine: ParkOnWord with zero period")
	}
	// A parked thread leaves the schedule entirely, so a speculative
	// journal must be replayed first: parking and replay never coexist.
	c.EndQuantum()
	c.parkKey, c.parkPeriod, c.parkPollCost, c.parkDeadline = key, period, pollCost, noDeadline
	if maxPolls > 0 {
		c.parkDeadline = c.clock + period*uint64(maxPolls)
	}
	c.sleep()
	c.suspend() // the journal is flushed, so no rollback can be pending here
}

// sleep parks t with its current park parameters. A bounded park keeps
// its deadline, the final poll boundary, queued so the wait cannot
// outlive its poll budget.
func (t *Ctx) sleep() {
	t.setState(parked)
	if t.parkDeadline != noDeadline {
		t.eng.queue.push(event{cycle: t.parkDeadline, id: int32(t.id)})
	}
}

// skipTo fast-forwards a parked thread to poll boundary b: its clock moves
// to the start of the polling tick that lands on b.
func (t *Ctx) skipTo(b uint64) {
	t.parkSkipped += (b - t.parkPollCost) - t.clock
	t.clock = b - t.parkPollCost
}

// WakeKey wakes every thread parked on key, scheduling each at its first
// poll boundary ordered after the caller's current position in the
// schedule. The caller is conceptually the thread whose store made the
// key available (a lock release); waiters whose poll would land at the
// caller's exact cycle keep the (cycle, id) tie-break of the event queue.
// With no parked threads the call is one set-emptiness test.
//
// Lazy herd: of the delegated acquirers (AcquireWord, so lock-word
// operations are installed) only the one with the earliest (boundary, id)
// is queued. Every other one can only lose the race for the word, so it
// stays parked with its boundary in herdB (the herd), and the word's next
// store settles it in closed form (settleHerd); its losing ticks are never
// delivered, so a tick hook does not see them. The caller must have just
// freed key's word, and a holder must not store it again until LockOp
// after taking it (DESIGN.md §6b).
func (c *Ctx) WakeKey(key uint64) {
	e := c.eng
	if e.wakeable.Empty() {
		return
	}
	now, wid := c.clock, int32(c.id)
	var first *Ctx
	// The walk costs the parked population, not the machine width.
	// ForEach iterates a copy in ascending id order — the order a full
	// scan of e.threads has — so wake may edit the set underneath it.
	e.wakeable.ForEach(func(id int) {
		t := e.threads[id]
		if t.parkKey != key {
			return
		}
		b := t.boundary(now, wid)
		if t.cont != contAcquire || b >= e.maxCap {
			// A boundary past the MaxCycles cap stays queued, so the run
			// fails at the event it fails at with eager wakes.
			e.wake(t, b)
			return
		}
		t.herdB = b
		e.herd.Add(id)
		if first == nil || b < first.herdB {
			first = t // ascending ids: an equal boundary keeps the smaller id
		}
	})
	if first != nil {
		e.herd.Remove(first.id)
		e.wake(first, first.herdB)
	}
	// The re-inserted waiters may now own the queue minimum: shrink the
	// caller's batch horizon so its next Tick yields at the right cycle.
	c.batchLimit = e.horizonFor(wid)
}

// boundary returns parked thread t's first poll boundary scheduled after
// position (now, wakerID) in the (cycle, id) event order.
func (t *Ctx) boundary(now uint64, wakerID int32) uint64 {
	per := t.parkPeriod
	k := uint64(1)
	if now > t.clock {
		k = (now - t.clock + per - 1) / per // first boundary ≥ now
	}
	b := t.clock + k*per
	if b == now && int32(t.id) < wakerID {
		// A boundary event at the waker's own cycle with a smaller thread
		// id would be ordered before the store that freed the key; the
		// waiter cannot observe it until the next boundary.
		b += per
	}
	return b
}

// wake queues parked thread t at poll boundary b: runnable, so the pop
// resumes the thread to run its own poll, or polling when it is in a
// continuation, whose poll the loop runs.
func (e *Engine) wake(t *Ctx, b uint64) {
	t.skipTo(b)
	t.herdB = 0
	s := runnable
	if t.cont != contNone {
		s = polling
	}
	t.setState(s)
	if t.parkDeadline == noDeadline {
		e.queue.push(event{cycle: b, id: int32(t.id)})
	} else if b < t.parkDeadline {
		// The bounded waiter's deadline event is queued at ≥ b (the
		// deadline is itself a boundary ordered after the waker, and b is
		// the first such boundary): pull it forward.
		e.queue.decreaseKey(int32(t.id), b)
	}
}

// ParkSkipped returns the cumulative virtual cycles this thread
// fast-forwarded while parked instead of simulating spin iterations —
// the telemetry layer mirrors interval diffs of this counter.
func (c *Ctx) ParkSkipped() uint64 { return c.parkSkipped }

// Work simulates n units of pure computation (no shared-memory effects) —
// by definition a pure tick, so it is eligible for speculative quanta.
func (c *Ctx) Work(n uint64) {
	c.TickPure(n * c.eng.cfg.Cost.Work)
}

// Engine owns the hardware threads and drives the min-clock cooperative
// schedule from the wakeup-event queue.
type Engine struct {
	cfg     Config
	threads []*Ctx
	// queue holds one (wakeup-cycle, thread-id) event per scheduled
	// context, in place: a fixed-size value cleared at the start of a Run.
	queue eventQueue
	// tickHook, when set, observes the global virtual time (the minimum
	// clock over runnable threads, non-decreasing within a run) at the
	// first delivered tick at or past hookAt, its deadline, and returns the
	// next one (see SetTickHook). The telemetry recorder uses it to cut
	// interval snapshots deterministically. hookAt is ^uint64(0) with no
	// hook, so every tick pays one comparison and nothing else.
	tickHook func(now uint64) (next uint64)
	hookAt   uint64
	// wakeable is the set of parked threads, kept by Ctx.setState: the
	// threads WakeKey can reschedule, and — once the queue runs dry — the
	// ones Run reports deadlocked. A woken thread already has its poll
	// queued, so a second release must not reschedule it.
	wakeable topology.Set
	// lockLoad/lockStore are the committed-memory word operations backing
	// the acquire and wait continuations (Ctx.AcquireWord, Ctx.WaitWord) —
	// non-transactional load/store with their full strong-isolation doom
	// semantics, executed by the event loop on the thread's behalf. See
	// SetLockWordOps.
	lockLoad  func(hw int, key uint64) uint64
	lockStore func(hw int, key uint64, v uint64)
	// herd is the set of deferred acquirers, each parked with herdB set
	// (see WakeKey).
	herd topology.Set
	// maxCap is the MaxCycles bound pre-encoded as a batch horizon: the
	// first clock value past the livelock budget, or maxEventCycle — the
	// last cycle the event queue orders exactly — when the budget is
	// unlimited or later than that. Folded into every thread's batchLimit
	// so the Tick fast path is a single comparison, and an event at or
	// past it ends the run with ErrMaxCycles.
	maxCap uint64
	// Speculative-quantum totals, accumulated over the engine's lifetime
	// (see Engine.QuantumCounters).
	specGrants        uint64
	specTicks         uint64
	specRollbacks     uint64
	specRollbackTicks uint64
	// count is the event loop's account of its own work (see Counters).
	count Counters
	// running is the context currently resumed inside t.next(), nil
	// between resumes. It lets SpecBarrier reach the speculating thread
	// from hooks (mem.Memory.Peek) that have no Ctx in hand.
	running *Ctx
	// delegation runs the lock-word protocols and Delegate as
	// continuations, off as the coroutine's own ticks (SetDelegation).
	delegation bool
}

// Counters is the event loop's account of its own work: every event it
// delivered, by how. Only a Resume pays the two coroutine switches; the
// other two kinds are steps the loop executed on the thread's behalf.
type Counters struct {
	Resumes uint64 // delivered by resuming the thread's coroutine
	Steps   uint64 // continuation ticks (acquire, wait, Delegate) that parked or queued their next tick
	Replays uint64 // journaled pure ticks re-delivered after a quantum (TickPure)
	// Settled counts deferred acquirers a winning store re-parked in
	// closed form (settleHerd): steps no event delivers, so Events leaves
	// them out.
	Settled uint64
}

// Counters returns the engine-lifetime event-loop totals. Like the
// quantum counters they accumulate across Runs; callers that want per-run
// numbers diff them. They are maintained by Run alone — nothing on the
// Tick fast path — and are as deterministic as the schedule itself.
func (e *Engine) Counters() Counters { return e.count }

// Events returns the number of events the loop took off the schedule and
// delivered: each is counted under exactly one kind.
func (c Counters) Events() uint64 { return c.Resumes + c.Steps + c.Replays }

// horizonFor returns the tick-batch horizon for thread id: the first
// clock value at which it must yield to the event loop. While the queue
// is non-empty that is the queue minimum's cycle — exclusive, or
// inclusive when id wins the (cycle, id) tie-break — capped by the
// MaxCycles bound. Tick's strict clock < horizon comparison then
// reproduces exactly the old per-tick test
//
//	(MaxCycles == 0 || clock <= MaxCycles) &&
//	    (queue empty || (clock, id) before queue min)
func (e *Engine) horizonFor(id int32) uint64 {
	lim := e.maxCap
	if q := &e.queue; q.n != 0 {
		m := q.min.event()
		h := m.cycle
		if id < m.id {
			h++ // equal cycles still precede the min: yield one later
		}
		lim = min(lim, h)
	}
	return lim
}

// SetTickHook installs (or clears, with nil) the tick observer. The engine
// calls hook(now) at the first delivered tick whose cycle reaches the
// hook's deadline, and hook returns the next deadline: a hook returning 0
// sees every tick, one returning now+P the first tick of every P-cycle
// stretch that has one. The deadline starts at cycle 0 here and on every
// Run. The hook only observes: the engine does the same work with or
// without one.
func (e *Engine) SetTickHook(hook func(now uint64) (next uint64)) {
	e.tickHook, e.hookAt = hook, 0
	if hook == nil {
		e.hookAt = ^uint64(0)
	}
}

// observe delivers the tick at now to the hook if it reached the hook's
// deadline.
func (e *Engine) observe(now uint64) {
	if now >= e.hookAt {
		e.hookAt = e.tickHook(now)
	}
}

// SetParkPollEvaluator does nothing. The engine no longer evaluates
// wake-time polls: a woken plain waiter resumes to run its own poll, and a
// woken continuation runs its poll inside the event loop. The
// stub remains only because benchmark/layers.go still calls it; delete it
// together with those calls.
func (e *Engine) SetParkPollEvaluator(func(key uint64) bool) {}

// New creates an engine for the given machine configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, maxCap: maxEventCycle, hookAt: ^uint64(0), delegation: true}
	if cfg.MaxCycles > 0 && cfg.MaxCycles < maxEventCycle {
		e.maxCap = cfg.MaxCycles + 1
	}
	// One slab each for the contexts and the speculation journals, sliced
	// per thread, instead of three heap objects per hardware thread.
	n, q := cfg.HWThreads(), max(cfg.SpecQuantum, 0)
	ctxs := make([]Ctx, n)
	cycles := make([]uint64, n*q)
	rngs := make([]Rand, n*q)
	e.threads = make([]*Ctx, n)
	for i := range ctxs {
		t := &ctxs[i]
		t.id = i
		t.rng = NewRand(mix(cfg.Seed, int64(i)))
		t.eng = e
		t.batchLimit = e.maxCap
		t.specCap = int32(q)
		t.spec.cycles = cycles[i*q : (i+1)*q : (i+1)*q]
		t.spec.rngs = rngs[i*q : (i+1)*q : (i+1)*q]
		e.threads[i] = t
	}
	return e, nil
}

// Config returns the engine's machine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Thread returns the context of hardware thread i, for inspection by
// simulator components between runs.
func (e *Engine) Thread(i int) *Ctx { return e.threads[i] }

// start binds body to context t as a fresh coroutine. The coroutine does
// not run until the event loop first resumes it through t.next.
func (t *Ctx) start(body func(*Ctx)) {
	t.next, t.stop = iter.Pull(func(yield func(uint64) bool) {
		t.yield = yield
		defer func() {
			t.yield = nil
			if r := recover(); r != nil && r != errAbandonRun {
				t.panicked = r
			}
		}()
		body(t)
		// A body must not finish with deferred ticks in flight: replay
		// them so the final ticks' hooks fire at their per-tick events
		// before the context is torn down.
		t.EndQuantum()
	})
}

// finish releases a context's coroutine handles. stop is idempotent: on a
// context whose body already returned it is a no-op, and on a suspended
// context it resumes it once with yield reporting false, which makes Tick
// unwind the body via the errAbandonRun sentinel.
func (t *Ctx) finish() {
	t.stop()
	t.next, t.stop = nil, nil
}

// Run executes one body per hardware thread until all bodies return.
// len(bodies) must be at most the number of hardware threads; threads
// without a body stay idle at clock 0. It returns the makespan (maximum
// final clock). A panic inside a body is recovered and returned as an
// error carrying the panic value (wrapping it when it is an error, so
// errors.Is sees through it); ErrMaxCycles is returned on livelock.
//
// Each popped event is dispatched on its thread's state (DESIGN.md §6b):
// the loop either executes the event itself — a continuation tick or a
// journal replay — or resumes the coroutine.
func (e *Engine) Run(bodies []func(*Ctx)) (makespan uint64, err error) {
	if len(bodies) > len(e.threads) {
		return 0, fmt.Errorf("machine: %d bodies for %d hardware threads",
			len(bodies), len(e.threads))
	}
	e.queue.clear()
	e.SetTickHook(e.tickHook) // re-arm the deadline at cycle 0
	for i, body := range bodies {
		if body == nil {
			continue
		}
		t := e.threads[i]
		t.reset()
		t.clock, t.panicked, t.parkSkipped = 0, nil, 0
		t.start(body)
		e.queue.push(event{cycle: 0, id: int32(i)})
	}

events:
	for !e.queue.empty() {
		ev := e.queue.pop()
		for {
			t := e.threads[ev.id]
			e.observe(ev.cycle)
			if ev.cycle >= e.maxCap {
				// Unwind every live context so no coroutine outlives the
				// run, then report the livelock.
				e.drain(bodies)
				return ev.cycle, ErrMaxCycles
			}
			switch t.state {
			case parked:
				// A bounded park's deadline: the final poll boundary came
				// with no wake. Fast-forward like a wake would. A plain
				// waiter resumes to run the final poll itself and gives up,
				// busy or not; a wait continuation's poll is the loop's, as
				// for a woken one.
				t.skipTo(ev.cycle)
				if t.cont == contNone {
					t.setState(runnable)
					break
				}
				fallthrough
			case polling:
				// A woken continuation's poll boundary. The coroutine would
				// resume here and tick through its polling load (a second
				// tick delivered at this cycle); the loop offers that tick
				// to the hook and runs the protocol from the poll, real
				// load included.
				e.observe(ev.cycle)
				t.setState(stepping)
				fallthrough
			case stepping:
				// A continuation's tick, delivered by the pop above.
				t.clock = ev.cycle
				nc, status := e.step(t, e.horizonFor(ev.id), true)
				if status != stepDone {
					e.count.Steps++
					if status == stepBusy {
						t.sleep()
						continue events
					}
					ev = e.queue.replaceMin(event{cycle: nc, id: ev.id})
					continue
				}
				// The protocol completed at the thread's clock: resume, so
				// the call that handed it off returns.
				t.cont = contNone
				t.setState(runnable)
			case replaying:
				if t.spec.next < t.spec.n {
					// Deferred tick spec.next of t's journal: its hook just
					// fired at the cycle the per-tick engine pops it at.
					// Queue the next deferred tick, or the final resume at
					// the thread's current clock.
					e.count.Replays++
					t.spec.next++
					nc := t.clock
					if t.spec.next < t.spec.n {
						nc = t.spec.cycles[t.spec.next]
					}
					ev = e.queue.replaceMin(event{cycle: nc, id: ev.id})
					continue
				}
				// The final resume (or a rollback truncated the journal to
				// this event, and the resume will unwind: Ctx.suspend).
				t.setState(runnable)
				t.spec.n, t.spec.next = 0, 0
			}
			t.batchLimit = e.horizonFor(ev.id)
			e.count.Resumes++
			e.running = t
			clock, ok := t.next()
			e.running = nil
			if !ok {
				// The body returned (or panicked); the context is done
				// and is not re-queued.
				t.finish()
				if t.panicked != nil {
					e.drain(bodies)
					if err, ok := t.panicked.(error); ok {
						return t.clock, fmt.Errorf("machine: thread %d panicked: %w", t.id, err)
					}
					return t.clock, fmt.Errorf("machine: thread %d panicked: %v", t.id, t.panicked)
				}
				continue events
			}
			if t.state == parked {
				// The thread parked itself (ParkOnWord, or a
				// continuation's poll found the word busy); a wake
				// re-queues it.
				continue events
			}
			if t.spec.n > 0 {
				// The yield closed a speculative quantum: re-deliver the
				// journaled ticks as events, in (cycle, id) order, before
				// the world sees this thread again. Parks and the
				// trampoline flush their journals before suspending, so
				// only a runnable yield gets here with one.
				t.setState(replaying)
				t.spec.next = 0
				clock = t.spec.cycles[0]
			}
			ev = e.queue.replaceMin(event{cycle: clock, id: ev.id})
		}
	}

	for i, body := range bodies {
		if body != nil {
			t := e.threads[i]
			t.batchLimit = e.maxCap // empty queue: post-run Ticks never yield
			makespan = max(makespan, t.clock)
		}
	}
	if e.deadlocked() {
		e.drain(bodies)
		return makespan, ErrDeadlock
	}
	return makespan, nil
}

// deadlocked is Run's verdict once its queue runs dry: a thread is still
// parked with no poll budget, and no thread is left to wake it.
func (e *Engine) deadlocked() bool { return e.queue.empty() && !e.wakeable.Empty() }

// reset re-arms t as a runnable thread with nothing in flight — no park
// continuation, no speculation, the batch horizon at its cap. Run applies
// it before binding a body and drain before abandoning one.
func (t *Ctx) reset() {
	t.setState(runnable)
	t.cont, t.proto, t.specUnwind, t.herdB = contNone, nil, false, 0
	t.spec.n, t.spec.next = 0, 0
	t.batchLimit = t.eng.maxCap
}

// drain unwinds all remaining live contexts. Called only on the error
// paths: contexts suspended inside Tick resume with yield reporting false
// and unwind via the errAbandonRun sentinel; contexts never resumed are
// cancelled before their body starts. Either way the coroutine ends here,
// synchronously, and the engine is immediately reusable.
func (e *Engine) drain(bodies []func(*Ctx)) {
	for i, body := range bodies {
		if body == nil {
			continue
		}
		t := e.threads[i]
		t.reset()
		if t.next != nil {
			t.finish()
		}
	}
	e.queue.clear()
	e.herd.Clear()
}

// mix combines a seed and a thread id into a well-spread 64-bit PRNG seed
// (SplitMix64 finalizer).
func mix(seed, id int64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}
