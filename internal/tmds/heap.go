package tmds

import (
	"seer/internal/mem"
)

// Heap is a binary min-heap of (priority, value) pairs in simulated
// memory — the analogue of STAMP's pqueue (labyrinth orders its routing
// requests by estimated length; yada orders bad triangles by angle).
//
// Layout:
//
//	header (1 line): [0] size, [1] capacity
//	slots: capacity pairs of words [priority, value]
type Heap struct {
	header mem.Addr
	slots  mem.Addr
	cap    uint64
}

const (
	heapOffSize = 0
	heapOffCap  = 1
)

// NewHeap builds an empty heap holding up to capacity entries.
func NewHeap(m *mem.Memory, capacity int) *Heap {
	if capacity < 1 {
		panic("tmds: NewHeap needs capacity >= 1")
	}
	h := &Heap{cap: uint64(capacity)}
	h.header = m.AllocLines(1)
	h.slots = m.AllocAligned(2 * capacity)
	m.Poke(h.header+heapOffSize, 0)
	m.Poke(h.header+heapOffCap, uint64(capacity))
	return h
}

func (h *Heap) prioAddr(i uint64) mem.Addr { return h.slots + mem.Addr(2*i) }
func (h *Heap) valAddr(i uint64) mem.Addr  { return h.slots + mem.Addr(2*i+1) }

// Len returns the number of stored entries.
func (h *Heap) Len(acc mem.Access) int {
	return int(acc.Load(h.header + heapOffSize))
}

// Push inserts (prio, val); it reports false when the heap is full.
func (h *Heap) Push(acc mem.Access, prio, val uint64) bool {
	n := acc.Load(h.header + heapOffSize)
	if n >= h.cap {
		return false
	}
	// Sift up.
	i := n
	for i > 0 {
		parent := (i - 1) / 2
		pp := acc.Load(h.prioAddr(parent))
		if pp <= prio {
			break
		}
		acc.Store(h.prioAddr(i), pp)
		acc.Store(h.valAddr(i), acc.Load(h.valAddr(parent)))
		i = parent
	}
	acc.Store(h.prioAddr(i), prio)
	acc.Store(h.valAddr(i), val)
	acc.Store(h.header+heapOffSize, n+1)
	return true
}

// Pop removes and returns the minimum-priority entry; ok is false when
// the heap is empty.
func (h *Heap) Pop(acc mem.Access) (prio, val uint64, ok bool) {
	n := acc.Load(h.header + heapOffSize)
	if n == 0 {
		return 0, 0, false
	}
	prio = acc.Load(h.prioAddr(0))
	val = acc.Load(h.valAddr(0))
	n--
	acc.Store(h.header+heapOffSize, n)
	if n == 0 {
		return prio, val, true
	}
	// Move the last entry to the root and sift down.
	lp := acc.Load(h.prioAddr(n))
	lv := acc.Load(h.valAddr(n))
	i := uint64(0)
	for {
		smallest, sp := i, lp
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ { // left child, then right
			if p := acc.Load(h.prioAddr(c)); p < sp {
				smallest, sp = c, p
			}
		}
		if smallest == i {
			break
		}
		acc.Store(h.prioAddr(i), sp)
		acc.Store(h.valAddr(i), acc.Load(h.valAddr(smallest)))
		i = smallest
	}
	acc.Store(h.prioAddr(i), lp)
	acc.Store(h.valAddr(i), lv)
	return prio, val, true
}

// Min returns the minimum entry without removing it.
func (h *Heap) Min(acc mem.Access) (prio, val uint64, ok bool) {
	if acc.Load(h.header+heapOffSize) == 0 {
		return 0, 0, false
	}
	return acc.Load(h.prioAddr(0)), acc.Load(h.valAddr(0)), true
}
