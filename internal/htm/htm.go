// Package htm implements a best-effort hardware transactional memory with
// Intel TSX semantics on top of the simulated machine and memory.
//
// The deliberate fidelity points, which define the problem Seer solves:
//
//   - Abort feedback is coarse: a Status bitmask distinguishes conflict,
//     capacity, explicit and spurious aborts — and nothing else. The HTM
//     never reveals WHICH transaction caused a conflict.
//   - Conflict detection is eager, at cache-line granularity, and
//     requester-wins: an access that conflicts with another transaction's
//     read/write set dooms that transaction (as cache-coherence requests do
//     on real hardware). Doomed transactions notice at their next
//     instruction boundary, mimicking asynchronous aborts.
//   - Strong isolation: non-transactional accesses doom conflicting
//     transactions too (see internal/mem). This is what makes the
//     single-global-lock fall-back correct: transactions read the lock
//     word transactionally, so acquiring it aborts them all.
//   - Capacity is limited by the L1 cache, which hyperthread siblings on
//     one physical core share: while k sibling hardware threads run
//     transactions on a core, each sees only 1/k of the line budget. This
//     is the pathology the paper's core locks address.
//   - No progress guarantee: even a transaction that would succeed can
//     abort spuriously (interrupts etc.), so a software fall-back is
//     mandatory.
package htm

import (
	"fmt"
	"math/bits"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// Status is the TSX-style status word returned when a hardware transaction
// aborts. The zero value means "committed".
type Status uint32

// Abort-cause bits, mirroring Intel's _XABORT_* flags.
const (
	BitExplicit Status = 1 << 0 // XAbort was called; code in bits 24-31
	BitRetry    Status = 1 << 1 // the transaction may succeed on retry
	BitConflict Status = 1 << 2 // data conflict with another thread
	BitCapacity Status = 1 << 3 // read/write set exceeded the cache budget
	BitSpurious Status = 1 << 4 // interrupt or other transient condition
)

// ExplicitCode extracts the 8-bit code passed to Tx.Abort.
func (s Status) ExplicitCode() uint8 { return uint8(s >> 24) }

// Conflict reports whether the abort was a data conflict.
func (s Status) Conflict() bool { return s&BitConflict != 0 }

// Capacity reports whether the abort was a capacity overflow.
func (s Status) Capacity() bool { return s&BitCapacity != 0 }

// Explicit reports whether the abort was requested by the program.
func (s Status) Explicit() bool { return s&BitExplicit != 0 }

// String renders the status for logs and test failures.
func (s Status) String() string {
	if s == 0 {
		return "committed"
	}
	out := ""
	add := func(name string) {
		if out != "" {
			out += "|"
		}
		out += name
	}
	if s&BitExplicit != 0 {
		add(fmt.Sprintf("explicit(%d)", s.ExplicitCode()))
	}
	if s&BitRetry != 0 {
		add("retry")
	}
	if s&BitConflict != 0 {
		add("conflict")
	}
	if s&BitCapacity != 0 {
		add("capacity")
	}
	if s&BitSpurious != 0 {
		add("spurious")
	}
	return out
}

// Config sets the capacity and noise parameters of the HTM.
type Config struct {
	// ReadSetLines is the maximum number of cache lines a transaction
	// may read when it has its physical core's L1 to itself
	// (Haswell tracks reads beyond L1, so this is larger than the
	// write-set budget).
	ReadSetLines int
	// WriteSetLines is the maximum number of written cache lines
	// (bounded by L1: 32 KiB / 64 B = 512 on Haswell).
	WriteSetLines int
	// SpuriousProb is the per-access probability of a transient abort.
	SpuriousProb float64
}

// DefaultConfig returns Haswell-like capacities, scaled down so that the
// scaled-down STAMP workloads exercise capacity aborts the way the full
// benchmarks do on real silicon.
func DefaultConfig() Config {
	return Config{
		ReadSetLines:  512,
		WriteSetLines: 64,
		SpuriousProb:  0.00002,
	}
}

// Counters aggregates HTM events for reports and tests.
type Counters struct {
	Commits        uint64
	Aborts         uint64
	ConflictAborts uint64
	CapacityAborts uint64
	ExplicitAborts uint64
	SpuriousAborts uint64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Commits += other.Commits
	c.Aborts += other.Aborts
	c.ConflictAborts += other.ConflictAborts
	c.CapacityAborts += other.CapacityAborts
	c.ExplicitAborts += other.ExplicitAborts
	c.SpuriousAborts += other.SpuriousAborts
}

// txnState is the per-hardware-thread transaction context. All of its
// buffers — the registered-line list, the epoch-stamped write buffer and
// the reusable Tx handle — live for the thread's lifetime and are reused
// across attempts, so a committed transaction allocates nothing.
//
// Read/write-set membership is not tracked here at all: the memory's
// conflict registry (mem.lineState) is the authoritative set
// representation, and RegisterRead/RegisterWrite report exactly when a set
// grows. txnState only keeps the two footprint counters the capacity model
// needs, plus the flat list of registered lines for O(set-size)
// unregistration.
type txnState struct {
	active     bool
	doomed     bool
	doomStatus Status
	// lastConflictor records who doomed this thread's latest conflict abort
	// (simulator-only oracle; see Unit.LastConflictor).
	lastConflictor int16
	// core is the thread's global physical core, precomputed so the
	// per-access capacity checks don't re-derive it from the machine
	// configuration. int32 holds any core id the topology ceiling admits.
	core int32
	// ctx is the machine context of the thread this state belongs to,
	// captured at transaction begin. The doom path uses it to notify the
	// engine's speculative-quantum machinery (machine.Ctx.Interfere) so a
	// victim whose journal is mid-replay rolls back to the interference
	// point instead of publishing speculated ticks.
	ctx         *machine.Ctx
	nReadLines  int        // lines counted against the read budget
	nWriteLines int        // lines counted against the write budget
	lines       []mem.Line // every registered line, for unregistering
	wb          writeBuf   // buffered stores, reused across attempts
	tx          Tx         // reusable per-attempt transaction handle
	// sig is the pre-boxed abort panic payload: every abort panics with
	// &sig, so unwinding a transaction never allocates (panicking with an
	// abortSignal value would box it into the interface on every abort).
	sig abortSignal
	// cnt holds the thread's event counters, one bank per execution mode so
	// reports can distinguish the two commit protocols.
	cnt [numBanks]Counters
	// Prologue state (RunSubscribed): pro is the pending prologue tick,
	// lock and held the subscribed word and its explicit-abort code, and
	// status the prologue's verdict, 0 when the body is to run.
	pro    prologueTick
	held   uint8
	lock   mem.Addr
	status Status
}

// prologueTick is the pending tick of a subscribed attempt's prologue.
type prologueTick uint8

const (
	proBegin prologueTick = iota // the mode's begin tick
	proLoad                      // the subscription load of the lock word
	proAbort                     // AbortHandle, after the load aborted the attempt
)

// reset clears the per-attempt state while keeping every reusable buffer's
// capacity: lines is truncated in place and the write buffer's backing
// arrays stay armed for the next begin().
func (t *txnState) reset() {
	t.active = false
	t.doomed = false
	t.doomStatus = 0
	t.nReadLines = 0
	t.nWriteLines = 0
	t.lines = t.lines[:0]
}

// modeParams is one execution mode of the attempt runner: everything that
// distinguishes a hardware (HTM) attempt from a software (STM) attempt. The
// runner, the access path and the abort bookkeeping are shared; a mode is
// this plain value, built once per Unit from the machine's cost model and
// the HTM configuration.
type modeParams struct {
	begin, commit uint64  // cycles to start / to publish an attempt
	load, store   uint64  // cycles per transactional access
	spurious      float64 // per-step probability of a transient abort
	// capacity turns on the L1 capacity model: the attempt occupies its
	// physical core's speculative L1 state (coreActive), shrinking its
	// siblings' line budget, and aborts when its own footprint outgrows its
	// share. A software attempt's footprint is bounded only by memory.
	capacity bool
	bank     int // counter bank the attempt books into
}

// Counter banks, one per execution mode.
const (
	bankHW = iota
	bankSW
	numBanks
)

// Unit is the machine's transactional-memory facility: one per simulated
// machine, tracking the in-flight transaction of every hardware thread.
type Unit struct {
	mem    *mem.Memory
	cfg    Config
	hw, sw modeParams // the two execution modes (Run, RunSW)
	txns   []txnState
	// coreActive[core] counts the hardware threads of one physical core
	// currently inside a capacity-modelled transaction, maintained at
	// transaction begin/end so the capacity model reads it in O(1) instead
	// of scanning the core's siblings on every set growth. Indexed by the
	// topology's global core id.
	coreActive []int16
	// doomHook, when set, observes every effective doom with its ground
	// truth: victim, aborter (-1 for non-conflict dooms) and the contended
	// cache line. It is the attribution sink's tap (internal/telemetry);
	// like the oracle it is simulator-only and costs one nil check when off.
	doomHook func(victim, aborter int, ln mem.Line)
}

// New creates the HTM unit and installs it as the memory's doomer.
// The machine config must be valid (Validate'd by machine.New): in
// particular its thread count fits machine.MaxHWThreads, which is what
// keeps the precomputed core-id table in range.
func New(m *mem.Memory, mach machine.Config, cfg Config) *Unit {
	return NewRecycled(m, mach, cfg, nil)
}

// Counters returns the summed hardware-mode event counters across hardware
// threads.
func (u *Unit) Counters() Counters { return u.bankTotal(bankHW) }

// SWCounters returns the summed software-mode (STM) event counters
// across hardware threads. All zero unless RunSW executed.
func (u *Unit) SWCounters() Counters { return u.bankTotal(bankSW) }

func (u *Unit) bankTotal(bank int) Counters {
	var total Counters
	for i := range u.txns {
		total.Add(u.txns[i].cnt[bank])
	}
	return total
}

// Active reports whether hardware thread hw is inside a transaction
// (the xtest() analogue at the unit level).
func (u *Unit) Active(hw int) bool { return u.txns[hw].active }

// SetDoomHook installs (or clears, with nil) the doom observer. The hook
// fires once per effective doom — after the victim's registry entries are
// removed, before the victim notices — and must not touch the machine
// clock.
func (u *Unit) SetDoomHook(fn func(victim, aborter int, ln mem.Line)) { u.doomHook = fn }

// --- mem.Doomer implementation ---

// DoomReaders aborts every transaction in the readers set except self.
// The set arrives by value (a snapshot): doom unregisters the victim's
// lines, mutating the very registry entry the caller is iterating.
func (u *Unit) DoomReaders(readers topology.Set, self int, ln mem.Line) {
	for wi, w := range readers.W {
		base := wi << 6
		for w != 0 {
			hw := base + bits.TrailingZeros64(w)
			w &= w - 1
			if hw != self {
				u.doom(hw, BitConflict|BitRetry, self, ln)
			}
		}
	}
}

// DoomWriter aborts the transaction of hardware thread writer unless it is
// self.
func (u *Unit) DoomWriter(writer, self int, ln mem.Line) {
	if writer != self {
		u.doom(writer, BitConflict|BitRetry, self, ln)
	}
}

// LastConflictor returns the hardware thread whose access caused hw's
// most recent conflict abort, or -1.
//
// This is a SIMULATOR-ONLY oracle: no commodity HTM exposes the
// conflicting transaction (that restriction is the whole premise of the
// paper). It exists so the Oracle policy can quantify what precise
// feedback would be worth; Seer never touches it.
func (u *Unit) LastConflictor(hw int) int { return int(u.txns[hw].lastConflictor) }

// doom marks hw's transaction as aborted and removes its registry entries
// immediately so the conflict state stays consistent; the victim observes
// the doom flag at its next instruction boundary. by records the
// requester for the simulator-only oracle interface; ln is the contended
// cache line, forwarded to the attribution hook.
func (u *Unit) doom(hw int, status Status, by int, ln mem.Line) {
	t := &u.txns[hw]
	if !t.active || t.doomed {
		return
	}
	t.doomed = true
	t.doomStatus |= status
	t.lastConflictor = int16(by)
	u.mem.Unregister(hw, t.lines)
	t.lines = t.lines[:0]
	t.nReadLines = 0
	t.nWriteLines = 0
	if u.doomHook != nil {
		u.doomHook(hw, by, ln)
	}
	if t.ctx != nil {
		// Requester-wins interference: if the victim is speculating past
		// its batch horizon, roll its journal back to this point so the
		// abort is delivered on the per-tick schedule (no-op otherwise).
		t.ctx.Interfere()
	}
}

// abortSignal is the panic payload used to unwind a transaction body, the
// Go analogue of the setjmp/longjmp behaviour of xbegin.
type abortSignal struct{ status Status }

// Tx is a running transaction attempt bound to one hardware thread. It
// implements the same Load/Store accessor shape as mem.Direct, so workload
// code is oblivious to which path (HTM, STM or fall-back) executes it. The
// struct lives inside its thread's txnState and is reused across attempts.
type Tx struct {
	u    *Unit
	ctx  *machine.Ctx
	cost *machine.CostModel
	st   *txnState // the owning thread's state, cached for the access path
	hw   int
	// p is the attempt's execution mode, set by run, so the shared access
	// path needs no mode branches beyond the capacity flag.
	p *modeParams
}

// activeOnCore counts hardware threads of st's physical core currently
// running a capacity-modelled transaction (including st's own); the L1
// line budget is divided by it. The count is maintained incrementally at
// transaction begin/end (see run), so this is an array read.
func (u *Unit) activeOnCore(st *txnState) int {
	return max(1, int(u.coreActive[st.core]))
}

func (u *Unit) readCap(st *txnState) int  { return max(1, u.cfg.ReadSetLines/u.activeOnCore(st)) }
func (u *Unit) writeCap(st *txnState) int { return max(1, u.cfg.WriteSetLines/u.activeOnCore(st)) }

// step advances virtual time by cost and delivers any pending asynchronous
// abort.
func (t *Tx) step(cost uint64) {
	t.ctx.Tick(cost)
	if s := t.boundary(); s != 0 {
		t.st.sig.status = s
		panic(&t.st.sig)
	}
}

// boundary is the instruction-boundary check after a tick: the status of
// a pending doom, or of a spurious abort drawn now; 0 for neither.
func (t *Tx) boundary() Status {
	st := t.st
	if st.doomed {
		return st.doomStatus
	}
	if t.p.spurious > 0 && t.ctx.Rand().Bool(t.p.spurious) {
		st.lastConflictor = -1
		return BitSpurious | BitRetry
	}
	return 0
}

// stepPure is step for ticks with no shared-state side effects (Tx.Work):
// the tick is eligible for a speculative quantum. The two step outcomes
// that make a speculated tick irreversible — observing a pending doom and
// drawing a spurious abort — first close the quantum with EndQuantum, so
// the journal replays (and can still roll back, rewinding the PRNG draw
// along with the clock) before the abort is delivered. With speculation
// disabled this is bit-for-bit identical to step.
func (t *Tx) stepPure(cost uint64) {
	t.ctx.TickPure(cost)
	if s := t.boundary(); s != 0 {
		t.ctx.EndQuantum()
		t.st.sig.status = s
		panic(&t.st.sig)
	}
}

// Load performs a transactional load. The conflict registry doubles as
// the read-set representation: RegisterRead reports whether the set grew,
// so the only per-access bookkeeping is a counter bump and a slice append.
// Cross-socket lines may carry an extra cost (see mem.SetAccessCost).
func (t *Tx) Load(a mem.Addr) uint64 {
	t.step(t.p.load + t.u.mem.AccessCost(t.hw, a))
	st := t.st
	if v, ok := st.wb.get(a); ok {
		return v
	}
	if grew, ownWrite := t.u.mem.RegisterRead(t.hw, a); grew && !ownWrite {
		if s := t.addRead(a); s != 0 {
			st.sig.status = s
			panic(&st.sig)
		}
	}
	return t.u.mem.Peek(a)
}

// addRead books a's line, just registered, into the read set and returns
// BitCapacity when the set outgrew the thread's L1 share, 0 otherwise.
func (t *Tx) addRead(a mem.Addr) Status {
	st := t.st
	st.nReadLines++
	st.lines = append(st.lines, mem.LineOf(a))
	if t.p.capacity && st.nReadLines > t.u.readCap(st) {
		return BitCapacity
	}
	return 0
}

// Store performs a transactional (buffered) store.
func (t *Tx) Store(a mem.Addr, v uint64) {
	t.step(t.p.store + t.u.mem.AccessCost(t.hw, a))
	st := t.st
	if grew, wasReader := t.u.mem.RegisterWrite(t.hw, a); grew {
		st.nWriteLines++
		if !wasReader {
			st.lines = append(st.lines, mem.LineOf(a))
		}
		if t.p.capacity && st.nWriteLines > t.u.writeCap(st) {
			st.sig.status = BitCapacity
			panic(&st.sig)
		}
	}
	st.wb.put(a, v)
}

// Work simulates n units of in-transaction computation (with abort
// delivery at the instruction boundary, like any other transactional
// step). Pure computation touches no shared simulator state, so its tick
// is speculable: under an open quantum it is journaled instead of
// yielding, and a conflicting access by an earlier-virtual-time thread
// rolls it back (see machine.Ctx.TickPure).
func (t *Tx) Work(n uint64) {
	if n > 0 {
		t.stepPure(n * t.cost.Work)
	}
}

// ThreadID returns the hardware thread running this transaction.
func (t *Tx) ThreadID() int { return t.hw }

// Abort explicitly aborts the transaction with an 8-bit code (the xabort
// analogue). It never returns.
func (t *Tx) Abort(code uint8) {
	t.st.sig.status = BitExplicit | BitRetry | Status(code)<<24
	panic(&t.st.sig)
}

// ReadSetLines and WriteSetLines report the current footprint, for tests.
func (t *Tx) ReadSetLines() int  { return t.st.nReadLines }
func (t *Tx) WriteSetLines() int { return t.st.nWriteLines }

// Run executes body as one hardware transaction attempt on ctx's thread.
// It returns status 0 if the transaction committed, and the abort status
// otherwise (body side effects are discarded on abort, as the write buffer
// is never applied). Nesting is not supported and panics.
func (u *Unit) Run(ctx *machine.Ctx, body func(*Tx)) Status { return u.run(ctx, &u.hw, false, body) }

// RunSW executes body as one software (STM) transaction attempt on ctx's
// thread — the SW execution mode of the phased-TM runtime. It is Run under
// the software modeParams: no L1 capacity model, no spurious aborts,
// instrumented per-access costs and a multi-line commit publish cost, with
// events booked into the software counter bank (SWCounters).
func (u *Unit) RunSW(ctx *machine.Ctx, body func(*Tx)) Status { return u.run(ctx, &u.sw, false, body) }

// RunSubscribed is Run, or RunSW when sw is set, with the attempt
// subscribed to the fall-back lock word at lock before body runs: the
// attempt's first access loads the word, and a held word aborts it
// explicitly with code held. It is
//
//	Run(ctx, func(tx *Tx) { if tx.Load(lock) != 0 { tx.Abort(held) }; body(tx) })
//
// tick for tick, hook for hook and doom for doom, but the prologue — the
// begin tick, the subscription load and, when they abort the attempt, its
// bookkeeping and AbortHandle tick — runs engine-side
// (machine.Ctx.Delegate), and an attempt the prologue aborts returns its
// status without a panic.
func (u *Unit) RunSubscribed(ctx *machine.Ctx, sw bool, lock mem.Addr, held uint8, body func(mem.Access)) Status {
	p := &u.hw
	if sw {
		p = &u.sw
	}
	st := &u.txns[ctx.ID()]
	st.lock, st.held = lock, held
	return u.run(ctx, p, true, func(tx *Tx) { body(tx) })
}

// run is the attempt runner: begin, execute body, then commit or unwind
// with a coarse status, under execution mode p. Both modes acquire per-line
// ownership through the same conflict registry (so hardware transactions,
// software transactions and direct accesses all conflict-detect eagerly
// against one another, requester-wins), buffer stores in the same
// epoch-stamped write buffer and abort through the same pre-boxed panic
// signal — zero steady-state allocations either way. With sub set the
// attempt first subscribes to the thread's st.lock (RunSubscribed).
func (u *Unit) run(ctx *machine.Ctx, p *modeParams, sub bool, body func(*Tx)) (status Status) {
	hw := ctx.ID()
	st := &u.txns[hw]
	if st.active {
		panic("htm: nested transactions are not supported")
	}
	tx := &st.tx
	if st.ctx != ctx {
		// First attempt on this (thread, engine) pair: bind the reusable Tx
		// handle, capture the context for doom-time interference delivery
		// and register the rollback unwinder — it rethrows the pre-boxed
		// abort signal, so a speculative rollback aborts through the
		// standard recover path below without allocating. One closure per
		// thread lifetime.
		st.ctx = ctx
		tx.u, tx.ctx, tx.cost, tx.st, tx.hw = u, ctx, ctx.Cost(), st, hw
		ctx.SetUnwinder(func() any {
			st.sig.status = st.doomStatus
			return &st.sig
		})
	}
	tx.p = p

	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// An explicit Tx.Abort can fire with a quantum still open (its
		// panic is not a scheduling point); the unwind below touches
		// shared state (coreActive, the conflict registry), so close the
		// quantum first. If the replay discovers a doom that predates
		// the explicit abort, the rollback signal supersedes it — the
		// per-tick engine would have delivered that doom at the
		// journaled tick's boundary check, before control ever reached
		// Abort. All other abort sources — step, stepPure, a speculative
		// rollback — arrive here with the quantum closed (no-op).
		if rb := endQuantumRecover(ctx); rb != nil {
			r = rb
		}
		// Every unwind — an abort, a programming error in the body, the
		// engine abandoning the run — leaves the unit as a commit would:
		// nothing registered, nothing active. (The run may be abandoned
		// inside the prologue, before the attempt began or after it
		// aborted.)
		if st.active {
			u.end(st, hw, p)
		}
		sig, ok := r.(*abortSignal)
		if !ok {
			panic(r) // not an abort: propagate
		}
		status = sig.status
		if status == 0 {
			// Defensive: an abort must carry a cause.
			status = BitRetry
		}
		st.cnt[p.bank].recordAbort(status)
		ctx.Tick(tx.cost.AbortHandle)
	}()

	if !sub {
		ctx.Tick(p.begin)
		u.begin(st, p)
	} else {
		st.pro, st.status = proBegin, 0
		if ctx.Delegate(st); st.status != 0 {
			return st.status
		}
	}
	body(tx)

	// Commit: one scheduling point, then the write buffer becomes globally
	// visible atomically (single-threaded step). The transaction still owns
	// every written line in the registry at this point (a conflicting access
	// would have doomed it), which is what makes the single-step publish
	// atomic with respect to all other execution modes.
	tx.step(p.commit)
	st.wb.apply(u.mem)
	u.end(st, hw, p)
	st.cnt[p.bank].Commits++
	return 0
}

// begin opens st's attempt under mode p: the thread is active, occupies
// its core's L1 share when the mode models capacity, and its write buffer
// is armed.
func (u *Unit) begin(st *txnState, p *modeParams) {
	st.active = true
	if p.capacity {
		u.coreActive[st.core]++
	}
	st.wb.begin()
}

// StepCost and Step make the thread's txnState the machine.Protocol of a
// subscribed attempt's prologue (RunSubscribed), which the engine runs
// tick by tick: the begin tick, which opens the attempt; the subscription
// load, which does what Tx.Load and the held test do after their tick but
// returns the abort instead of panicking; and after an abort the unwind
// bookkeeping and the AbortHandle tick that run's recover would do.

// StepCost implements machine.Protocol.
func (st *txnState) StepCost() uint64 {
	tx := &st.tx
	switch st.pro {
	case proBegin:
		return tx.p.begin
	case proLoad:
		return tx.p.load + tx.u.mem.AccessCost(tx.hw, st.lock)
	}
	return tx.cost.AbortHandle
}

// Step implements machine.Protocol.
func (st *txnState) Step() (done bool) {
	tx := &st.tx
	switch st.pro {
	case proBegin:
		tx.u.begin(st, tx.p)
		st.pro = proLoad
		return false
	case proLoad:
		if st.status = tx.subscribe(); st.status == 0 {
			return true
		}
		tx.u.end(st, tx.hw, tx.p)
		st.cnt[tx.p.bank].recordAbort(st.status)
		st.pro = proAbort
		return false
	}
	return true
}

// subscribe is the prologue's subscription load after its tick: step's
// instruction-boundary check, then Load's registration of the (first, so
// unbuffered) line and the held test. It returns the status the body code
// would have aborted with, 0 when the word is free.
func (t *Tx) subscribe() Status {
	if s := t.boundary(); s != 0 {
		return s
	}
	if grew, ownWrite := t.u.mem.RegisterRead(t.hw, t.st.lock); grew && !ownWrite {
		if s := t.addRead(t.st.lock); s != 0 {
			return s
		}
	}
	if t.u.mem.Peek(t.st.lock) != 0 {
		return BitExplicit | BitRetry | Status(t.st.held)<<24
	}
	return 0
}

// end closes hw's attempt, committed or not: its remaining lines leave the
// conflict registry, its core's L1 share is returned and the per-attempt
// state is cleared.
func (u *Unit) end(st *txnState, hw int, p *modeParams) {
	u.mem.Unregister(hw, st.lines)
	st.reset()
	if p.capacity {
		u.coreActive[st.core]--
	}
}

// endQuantumRecover closes an open speculative quantum from inside run's
// recover block, where the deferred recover has already fired: whatever the
// replay raises (a speculative rollback's signal at the resume, or the engine's
// abandon-run sentinel) must be caught here or it would escape run past its
// cleanup. It returns that payload, nil if the replay completed cleanly.
func endQuantumRecover(ctx *machine.Ctx) (r any) {
	defer func() { r = recover() }()
	ctx.EndQuantum()
	return nil
}

// Cause is the priority classification of an abort status: the one cause an
// abort is booked under by the HTM's own counters and by every consumer of
// them (telemetry and attribution index their breakdowns by it).
type Cause uint8

// Abort causes, in classification priority order.
const (
	CauseConflict Cause = iota
	CauseCapacity
	CauseExplicit
	CauseSpurious
	CauseOther
)

// Cause classifies an abort status.
func (s Status) Cause() Cause {
	switch {
	case s&BitConflict != 0:
		return CauseConflict
	case s&BitCapacity != 0:
		return CauseCapacity
	case s&BitExplicit != 0:
		return CauseExplicit
	case s&BitSpurious != 0:
		return CauseSpurious
	default:
		return CauseOther
	}
}

func (c *Counters) recordAbort(s Status) {
	c.Aborts++
	switch s.Cause() {
	case CauseConflict:
		c.ConflictAborts++
	case CauseCapacity:
		c.CapacityAborts++
	case CauseExplicit:
		c.ExplicitAborts++
	case CauseSpurious:
		c.SpuriousAborts++
	}
}

// Compile-time check: a transaction satisfies the uniform accessor
// interface, so bodies run unchanged on HTM, STM and fall-back paths.
var _ mem.Access = (*Tx)(nil)
