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
package spinlock

import (
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
)

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

// Locked reports whether the lock is held, using a non-transactional load
// (one scheduling point).
func (l Lock) Locked(ctx *machine.Ctx, m *mem.Memory) bool {
	ctx.Tick(ctx.Cost().DirectLoad)
	return m.DirectLoad(ctx.ID(), l.addr) != 0
}

// LockedFast reports whether the lock is held without advancing virtual
// time: it models the L1-cached re-read of a lock word a spinning or
// checking thread already holds in shared state, which costs ~1 cycle on
// real hardware. Use it for the cheap pre-checks on hot paths (lemming
// avoidance, Seer's cooperative waits); the ticking variants take over
// once the lock is actually observed held.
func (l Lock) LockedFast(m *mem.Memory) bool {
	return m.Peek(l.addr) != 0
}

// TryAcquire attempts one compare-and-swap. The load and conditional store
// execute within a single scheduling point, so the CAS is atomic under the
// engine's serialization.
func (l Lock) TryAcquire(ctx *machine.Ctx, m *mem.Memory) bool {
	ctx.Tick(ctx.Cost().LockOp)
	if m.DirectLoad(ctx.ID(), l.addr) != 0 {
		return false
	}
	m.DirectStore(ctx.ID(), l.addr, uint64(ctx.ID())+1)
	return true
}

// Acquire spins (test-and-test-and-set) until the lock is taken.
//
// The spin is event-driven: instead of ticking through every spin quantum,
// a thread that observes the lock busy parks on the lock word
// (machine.Ctx.ParkOnWord) and is re-inserted into the schedule at its
// next poll boundary after the holder's release. The observable schedule —
// which cycles the lock word is polled at, and in which thread order — is
// identical to the ticking loop's; see DESIGN.md §6b.
func (l Lock) Acquire(ctx *machine.Ctx, m *mem.Memory) {
	// When the engine has lock-word operations installed (the runtime
	// wires DirectLoad/DirectStore), the whole protocol — wake-time polls
	// included — is delegated to the event loop: every tick, hook and doom
	// lands at the identical schedule position, but the coroutine suspends
	// at most once. See machine.Ctx.AcquireWord.
	if ctx.AcquireWord(uint64(l.addr), uint64(ctx.ID())+1) {
		return
	}
	cost := ctx.Cost()
	for {
		ctx.Tick(cost.DirectLoad)
		if m.DirectLoad(ctx.ID(), l.addr) == 0 {
			if l.TryAcquire(ctx, m) {
				return
			}
			continue
		}
		ctx.ParkOnWord(uint64(l.addr), cost.SpinQuantum+cost.DirectLoad, cost.DirectLoad, 0)
	}
}

// SpinWhileLocked blocks until the lock is observed free, parking between
// poll boundaries like Acquire. It does not acquire the lock; Seer uses it
// to cooperate with lock holders.
func (l Lock) SpinWhileLocked(ctx *machine.Ctx, m *mem.Memory) {
	// Like Acquire, the wait runs engine-side when the engine has
	// lock-word operations: the coroutine resumes once, with the lock
	// observed free. See machine.Ctx.WaitWord.
	if _, ok := ctx.WaitWord(uint64(l.addr), -1); ok {
		return
	}
	cost := ctx.Cost()
	for {
		ctx.Tick(cost.DirectLoad)
		if m.DirectLoad(ctx.ID(), l.addr) == 0 {
			return
		}
		ctx.ParkOnWord(uint64(l.addr), cost.SpinQuantum+cost.DirectLoad, cost.DirectLoad, 0)
	}
}

// SpinWhileLockedBounded is SpinWhileLocked with a spin budget. It returns
// true if the lock was observed free, false if the budget ran out. Seer's
// cooperative waits on transaction and core locks are advisory (the HTM
// enforces correctness), so bounding them cannot violate safety — and it
// breaks the wait cycle that two threads holding a transaction lock and a
// core lock while waiting on each other would otherwise form.
//
// The park is bounded by the remaining poll budget: with no release
// forthcoming the engine resumes the thread at its final poll boundary,
// which is exactly where the ticking loop would have given up. The polls
// consumed by a park are recovered from the clock delta, so a wake part
// way through the budget leaves the remaining budget unchanged.
func (l Lock) SpinWhileLockedBounded(ctx *machine.Ctx, m *mem.Memory, maxSpins int) bool {
	if free, ok := ctx.WaitWord(uint64(l.addr), max(maxSpins, 0)); ok {
		return free
	}
	cost := ctx.Cost()
	period := cost.SpinQuantum + cost.DirectLoad
	for i := 0; ; {
		ctx.Tick(cost.DirectLoad)
		if m.DirectLoad(ctx.ID(), l.addr) == 0 {
			return true
		}
		if i >= maxSpins {
			return false
		}
		before := ctx.Clock()
		ctx.ParkOnWord(uint64(l.addr), period, cost.DirectLoad, maxSpins-i)
		i += int((ctx.Clock() + cost.DirectLoad - before) / period)
	}
}

// Release frees the lock and wakes any threads parked on it. It panics if
// the caller does not hold it, which would be a bug in the TM runtime.
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

// ReleaseOwned frees a lock known to be held by ctx's thread without the
// owner check (used when releasing batches acquired via AcquireTx), waking
// any threads parked on it.
func (l Lock) ReleaseOwned(ctx *machine.Ctx, m *mem.Memory) {
	ctx.Tick(ctx.Cost().LockOp)
	m.DirectStore(ctx.ID(), l.addr, 0)
	ctx.WakeKey(uint64(l.addr))
}

// CodeLockBusy is the explicit-abort code meaning "a lock in the batch was
// busy" during transactional multi-lock acquisition.
const CodeLockBusy uint8 = 0xA1

// CodeSGLHeld is the explicit-abort code used by TM runtimes when a
// hardware transaction observes the single-global fall-back lock held.
const CodeSGLHeld uint8 = 0xFF
