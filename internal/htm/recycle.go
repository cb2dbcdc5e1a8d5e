package htm

import (
	"seer/internal/machine"
	"seer/internal/mem"
)

// Buffers holds a Unit's per-thread state between replica lifetimes: the
// transaction contexts (whose registered-line lists and epoch-stamped
// write buffers are the unit's only growing allocations, and which carry
// the topology placement) and the per-core occupancy table. Paired with
// mem.Buffers it lets the harness build one simulator replica per grid
// worker instead of one per cell (see seer.Recycler).
// The zero value is ready: the first NewRecycled allocates.
type Buffers struct {
	txns       []txnState
	coreActive []int16
}

// NewRecycled creates an HTM unit like New, drawing per-thread state
// from buf when its capacity suffices and allocating otherwise. Recycled
// transaction contexts keep their line-list and write-buffer backing
// arrays (the write buffer's epoch machinery makes stale entries
// unobservable) but are otherwise reset to power-on state, so a recycled
// unit is behaviorally indistinguishable from a fresh one. A nil buf is
// exactly New.
func NewRecycled(m *mem.Memory, mach machine.Config, cfg Config, buf *Buffers) *Unit {
	hw := mach.HWThreads()
	cores := mach.PhysCores()
	cost := &mach.Cost
	u := &Unit{
		mem: m,
		cfg: cfg,
		hw: modeParams{
			begin: cost.XBegin, commit: cost.XEnd, load: cost.TxLoad, store: cost.TxStore,
			spurious: cfg.SpuriousProb, capacity: true,
		},
		sw: modeParams{
			begin: cost.STMBegin, commit: cost.STMCommit, load: cost.STMLoad, store: cost.STMStore,
		},
	}
	if buf != nil && cap(buf.txns) >= hw && cap(buf.coreActive) >= cores {
		u.txns = buf.txns[:hw]
		u.coreActive = buf.coreActive[:cores]
		buf.txns, buf.coreActive = nil, nil
		for i := range u.txns {
			u.txns[i].recycle()
		}
		clear(u.coreActive)
	} else {
		u.txns = make([]txnState, hw)
		u.coreActive = make([]int16, cores)
	}
	for i := range u.txns {
		u.txns[i].core = int32(mach.PhysCore(i))
		u.txns[i].lastConflictor = -1
	}
	m.SetDoomer(u)
	return u
}

// recycle resets a transaction context to power-on state while keeping
// its reusable backing arrays: the registered-line list is truncated in
// place and the write buffer's table survives with its epoch counter
// (begin() invalidates all previous entries in O(1)). Everything else —
// flags, the per-attempt Tx handle and the pre-boxed abort signal — is
// cleared, including the stale simulator pointers of the previous replica.
func (t *txnState) recycle() {
	lines := t.lines[:0]
	wb := t.wb
	wb.order = wb.order[:0]
	*t = txnState{lines: lines, wb: wb}
}

// Release returns the unit's per-thread state to buf for the next
// replica built on it. The Unit must not be used afterwards.
func (u *Unit) Release(buf *Buffers) {
	if cap(u.txns) > cap(buf.txns) {
		buf.txns, buf.coreActive = u.txns, u.coreActive
	}
	u.txns, u.coreActive = nil, nil
}
