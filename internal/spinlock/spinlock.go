// Package spinlock provides test-and-test-and-set spin locks that live in
// the simulated memory. Keeping lock words inside the simulated address
// space is what lets hardware transactions subscribe to them: a
// transaction that reads a lock word adds its cache line to the read set,
// so a later acquisition (a plain store) dooms the transaction — exactly
// the mechanism that makes single-global-lock fall-backs correct on real
// best-effort HTM.
//
// Each lock occupies its own cache line to avoid false conflicts between
// unrelated locks (as the paper's per-transaction and per-core lock arrays
// do in practice).
//
// The acquire and wait protocols are the engine's (machine.Ctx.AcquireWord
// and WaitWord), run on the lock words through the operations Wire
// installs; an engine that runs any of them must be wired first.
package spinlock

import (
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
)

// Wire installs m's non-transactional load and store, doom side effects
// included, as eng's lock-word operations (machine.Engine.SetLockWordOps),
// so the locks allocated in m can be acquired and waited on. Call it
// before eng.Run.
func Wire(eng *machine.Engine, m *mem.Memory) {
	eng.SetLockWordOps(
		func(hw int, key uint64) uint64 { return m.DirectLoad(hw, mem.Addr(key)) },
		func(hw int, key uint64, v uint64) { m.DirectStore(hw, mem.Addr(key), v) })
}

// Lock is a spin lock resident in simulated memory. The word holds 0 when
// free and ownerHW+1 when held.
type Lock struct {
	addr mem.Addr
}

// New allocates a lock on its own cache line.
func New(m *mem.Memory) Lock {
	return Lock{addr: m.AllocLines(1)}
}

// Addr returns the lock word's address (for transactional subscription).
func (l Lock) Addr() mem.Addr { return l.addr }

// LockedFast reports whether the lock is held without advancing virtual
// time: it models the L1-cached re-read of a lock word a spinning or
// checking thread already holds in shared state, which costs ~1 cycle on
// real hardware. Use it for the cheap pre-checks on hot paths (lemming
// avoidance, Seer's cooperative waits); the ticking waits take over once
// the lock is actually observed held.
func (l Lock) LockedFast(m *mem.Memory) bool {
	return m.Peek(l.addr) != 0
}

// Acquire spins (test-and-test-and-set) until the lock is taken. The spin
// is event-driven: a poll that observes the lock busy parks the thread on
// the lock word until a release, and the engine runs the protocol —
// wake-time polls included — on the thread's behalf, at the cycles and in
// the thread order the ticking loop polls at (machine.Ctx.AcquireWord,
// DESIGN.md §6b). The memory is the one Wire installed.
func (l Lock) Acquire(ctx *machine.Ctx, _ *mem.Memory) {
	ctx.AcquireWord(uint64(l.addr), uint64(ctx.ID())+1)
}

// SpinWhileLocked blocks until the lock is observed free, parking between
// poll boundaries like Acquire (machine.Ctx.WaitWord). It does not acquire
// the lock; Seer uses it to cooperate with lock holders.
func (l Lock) SpinWhileLocked(ctx *machine.Ctx) {
	ctx.WaitWord(uint64(l.addr), -1)
}

// SpinWhileLockedBounded is SpinWhileLocked with a budget of maxSpins
// polls after the first. It returns true if the lock was observed free,
// false if the budget ran out. Seer's cooperative waits on transaction and
// core locks are advisory (the HTM enforces correctness), so bounding them
// cannot violate safety — and it breaks the wait cycle that two threads
// holding a transaction lock and a core lock while waiting on each other
// would otherwise form.
func (l Lock) SpinWhileLockedBounded(ctx *machine.Ctx, maxSpins int) bool {
	return ctx.WaitWord(uint64(l.addr), max(maxSpins, 0))
}

// Release frees the lock, whether Acquire or AcquireTx took it, and wakes
// any threads parked on it. It panics if the caller does not hold it,
// which would be a bug in the TM runtime.
func (l Lock) Release(ctx *machine.Ctx, m *mem.Memory) {
	ctx.Tick(ctx.Cost().LockOp)
	if owner := m.DirectLoad(ctx.ID(), l.addr); owner != uint64(ctx.ID())+1 {
		panic("spinlock: release by non-owner")
	}
	m.DirectStore(ctx.ID(), l.addr, 0)
	ctx.WakeKey(uint64(l.addr))
}

// AcquireTx writes the lock word from inside hardware transaction t on
// ctx's thread, aborting explicitly (code CodeLockBusy) if the lock is
// held. Seer's multi-CAS optimization uses this to batch several lock
// acquisitions into one hardware transaction. Acquirers a release left
// deferred on the free word (machine.Ctx.WakeKey) would doom the writer
// with their polls, so once the write registers they are queued where
// eager wakes had them (machine.Ctx.MaterializeHerd).
func (l Lock) AcquireTx(t *htm.Tx, ctx *machine.Ctx) {
	if t.Load(l.addr) != 0 {
		t.Abort(CodeLockBusy)
	}
	t.Store(l.addr, uint64(ctx.ID())+1)
	ctx.MaterializeHerd(uint64(l.addr))
}

// CodeLockBusy is the explicit-abort code meaning "a lock in the batch was
// busy" during transactional multi-lock acquisition.
const CodeLockBusy uint8 = 0xA1

// CodeSGLHeld is the explicit-abort code used by TM runtimes when a
// hardware transaction observes the single-global fall-back lock held.
const CodeSGLHeld uint8 = 0xFF
