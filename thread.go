package seer

import (
	"seer/internal/policy"
)

// Thread is the handle a Worker uses to interact with the simulated
// machine: executing atomic blocks, doing plain work, and accessing
// memory non-transactionally between transactions.
type Thread struct {
	sys *System
	pt  *policy.Thread
}

// ID returns the hardware thread id this worker runs on.
func (t *Thread) ID() int { return t.pt.Ctx.ID() }

// Clock returns the thread's current virtual time in cycles.
func (t *Thread) Clock() uint64 { return t.pt.Ctx.Clock() }

// Rand returns the thread's deterministic PRNG.
func (t *Thread) Rand() *Rand { return t.pt.Ctx.Rand() }

// Work simulates n units of pure computation.
func (t *Thread) Work(n uint64) { t.pt.Ctx.Work(n) }

// Atomic executes body atomically under the system's policy. txID names
// the atomic block (a static program location in the paper's model) and
// must be in [0, Config.NumAtomicBlocks). The body may run several times
// (hardware retries) and must confine its side effects to Access
// operations; on the fall-back path it runs exactly once under the
// single-global lock.
func (t *Thread) Atomic(txID int, body func(Access)) {
	t.AtomicObj(txID, 0, body)
}

// AtomicObj is Atomic with an object identifier, enabling the
// object-granular locking extension (SeerOptions.ObjLocks): when the
// scheduler serializes this atomic block, only transactions touching the
// same object (stripe) wait on each other. Pass the natural identity of
// the datum the block manipulates — a key, a cluster index, a node id.
func (t *Thread) AtomicObj(txID int, objID uint64, body func(Access)) {
	if txID < 0 || txID >= t.sys.cfg.NumAtomicBlocks {
		panic("seer: txID out of range for configured NumAtomicBlocks")
	}
	t.pt.Obs.BlockEnter(txID)
	t.sys.pol.Run(t.pt, txID, objID, body)
	t.pt.Obs.BlockExit()
}

// Direct returns the thread's non-transactional accessor. Use it only for
// data not concurrently accessed inside transactions, or for racy-by-
// design reads (it preserves the HTM's strong isolation: direct stores
// abort conflicting transactions).
func (t *Thread) Direct() Access { return t.pt.Direct }

// Modes returns the commit-mode histogram this thread has accumulated in
// the current Run.
func (t *Thread) Modes() ModeCounts { return ModeCounts(t.pt.Modes[:NumModes]) }
