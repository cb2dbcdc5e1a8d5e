package tmds

import (
	"seer/internal/mem"
)

// Queue is a bounded FIFO ring buffer in simulated memory, the analogue
// of STAMP's queue used by intruder for its packet streams.
//
// Layout: the head and tail indices live on separate cache lines (like
// the padded head/tail of any serious concurrent ring buffer), so
// producers and consumers conflict only through genuinely shared slots.
//
//	head line: [0] head index
//	tail line: [0] tail index, [1] capacity
//	slots: capacity words (line-aligned)
//
// head == tail means empty; the buffer keeps one slot free to distinguish
// full from empty.
type Queue struct {
	head  mem.Addr
	tail  mem.Addr
	slots mem.Addr
	cap   uint64
}

// NewQueue builds an empty queue holding up to capacity-1 values.
func NewQueue(m *mem.Memory, capacity int) *Queue {
	if capacity < 2 {
		panic("tmds: NewQueue needs capacity >= 2")
	}
	q := &Queue{cap: uint64(capacity)}
	q.head = m.AllocLines(1)
	q.tail = m.AllocLines(1)
	q.slots = m.AllocAligned(capacity)
	m.Poke(q.head, 0)
	m.Poke(q.tail, 0)
	m.Poke(q.tail+1, uint64(capacity))
	return q
}

// Push appends v; it reports false when the queue is full.
func (q *Queue) Push(acc mem.Access, v uint64) bool {
	tail := acc.Load(q.tail)
	next := (tail + 1) % q.cap
	if next == acc.Load(q.head) {
		return false
	}
	acc.Store(q.slots+mem.Addr(tail), v)
	acc.Store(q.tail, next)
	return true
}

// Pop removes and returns the oldest value; ok is false when empty.
func (q *Queue) Pop(acc mem.Access) (v uint64, ok bool) {
	head := acc.Load(q.head)
	if head == acc.Load(q.tail) {
		return 0, false
	}
	v = acc.Load(q.slots + mem.Addr(head))
	acc.Store(q.head, (head+1)%q.cap)
	return v, true
}

// Len returns the number of queued values.
func (q *Queue) Len(acc mem.Access) int {
	head := acc.Load(q.head)
	tail := acc.Load(q.tail)
	return int((tail + q.cap - head) % q.cap)
}

// Empty reports whether the queue holds no values.
func (q *Queue) Empty(acc mem.Access) bool {
	return acc.Load(q.head) == acc.Load(q.tail)
}

// Counters is an array of line-padded accumulators (one value per cache
// line), the layout kmeans uses for its per-cluster statistics so that
// unrelated clusters do not false-share.
type Counters struct {
	base mem.Addr
	n    int
}

// NewCounters allocates n padded counters initialized to zero.
func NewCounters(m *mem.Memory, n int) *Counters {
	return &Counters{base: m.AllocLines(n), n: n}
}

// Addr returns the address of counter i, so workloads can combine counter
// updates with other transactional accesses.
func (c *Counters) Addr(i int) mem.Addr {
	if i < 0 || i >= c.n {
		panic("tmds: counter index out of range")
	}
	return c.base + mem.Addr(i)*mem.LineWords
}

// Get returns counter i.
func (c *Counters) Get(acc mem.Access, i int) uint64 { return acc.Load(c.Addr(i)) }

// Add increments counter i by delta.
func (c *Counters) Add(acc mem.Access, i int, delta uint64) {
	a := c.Addr(i)
	acc.Store(a, acc.Load(a)+delta)
}

// N returns the number of counters.
func (c *Counters) N() int { return c.n }
