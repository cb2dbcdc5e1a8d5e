package machine

// event is one pending wakeup in the engine's schedule: thread id resumes
// when the global virtual time reaches cycle. Events are ordered by
// (cycle, id): earlier virtual time first, ties broken by the lower thread
// id. The id tie-break is what makes the schedule total and therefore the
// whole simulation deterministic — it mirrors the seed engine's linear
// scan, which resolved equal clocks in favor of the lowest index.
type event struct {
	cycle uint64
	id    int32
}

// key is an event packed into one word, ^(cycle<<8 | id), so that a single
// unsigned compare is the (cycle, id) order — the GREATER key is the
// EARLIER event — and 0, which no event packs to, stands for "no event"
// and loses every comparison. The complement is what makes the zero
// eventQueue an empty queue.
type key uint64

// maxEventCycle is the largest cycle a key can carry: 56 cycle bits, less
// the one value whose id-255 key would collide with the empty key. key
// saturates later cycles to it, and machine.New folds it into the engine's
// MaxCycles horizon, so an event that cannot be ordered exactly pops after
// every event that can and ends the run with ErrMaxCycles instead of
// wrapping to the front of the schedule.
const maxEventCycle = 1<<56 - 2

// The 8-bit id field is exactly the machine's thread-id space.
var _ = [1]struct{}{}[MaxHWThreads-256]

func (ev event) key() key {
	return ^key(min(ev.cycle, maxEventCycle)<<8 | uint64(uint8(ev.id)))
}

func (k key) event() event { return event{cycle: uint64(^k >> 8), id: int32(uint8(^k))} }

// eventQueue is the scheduler's pending-wakeup set. The engine queues at
// most one event per hardware thread (its next wakeup, or its park
// deadline), so the queue is a fixed 8-ary max tree over one key slot per
// thread id: leaf holds the 256 slots in groups of eight, l1[w][g] is the
// greatest key of leaf group 8w+g, l2[w] the greatest of l1[w], and min
// the greatest of l2 — the earliest event, or 0 when the queue is empty.
// Every operation stores its leaves and repairs their root paths with
// straight-line max reductions, whatever the number of live threads:
// nothing records which slots are occupied, because an empty slot already
// loses, so no step depends on the data or on the machine's width.
type eventQueue struct {
	n    int // number of queued events
	min  key // earliest queued event; 0 while n == 0
	l2   [4]key
	l1   [4][8]key
	leaf [32][8]key
}

// empty reports whether no events are queued.
func (q *eventQueue) empty() bool { return q.n == 0 }

// clear discards all queued events.
func (q *eventQueue) clear() { *q = eventQueue{} }

// max8 returns the greatest of eight keys, as a balanced tree of
// conditional moves.
func max8(a *[8]key) key {
	return max(max(max(a[0], a[1]), max(a[2], a[3])), max(max(a[4], a[5]), max(a[6], a[7])))
}

// raise stores k, a key greater than the slot's current one, in thread
// id's slot. A key that only grows folds into each ancestor with one max.
func (q *eventQueue) raise(id uint8, k key) {
	q.leaf[id>>3][id&7] = k
	q.l1[id>>6][id>>3&7] = max(q.l1[id>>6][id>>3&7], k)
	q.l2[id>>6] = max(q.l2[id>>6], k)
	q.min = max(q.min, k)
}

// push inserts thread ev.id's wakeup. The thread must not already have an
// event queued (the engine pops a thread's event before the thread can
// push a new one).
func (q *eventQueue) push(ev event) {
	q.raise(uint8(ev.id), ev.key())
	q.n++
}

// pop removes and returns the minimum event: it empties the minimum's
// slot and recomputes its ancestors from their children. It must not be
// called on an empty queue.
func (q *eventQueue) pop() event {
	top := q.min.event()
	t := uint8(top.id)
	q.leaf[t>>3][t&7] = 0
	q.l1[t>>6][t>>3&7] = max8(&q.leaf[t>>3])
	q.l2[t>>6] = max8(&q.l1[t>>6])
	q.min = max(q.l2[0], q.l2[1], q.l2[2], q.l2[3])
	q.n--
	return top
}

// replaceMin files ev — the next event of the thread whose event the
// scheduler loop just processed — and returns the event to process next:
// ev itself, with no queue traffic at all, when it precedes every queued
// event; otherwise the queue minimum, with ev swapped in for it in one
// pass instead of a pop plus a push. Both leaves are stored first and the
// tree repaired once: ev's key folds into its ancestors, then the
// minimum's ancestors are recomputed, which corrects any fold they
// share.
func (q *eventQueue) replaceMin(ev event) event {
	k := ev.key()
	if k > q.min {
		return ev
	}
	top := q.min.event()
	t, i := uint8(top.id), uint8(ev.id)
	q.leaf[t>>3][t&7] = 0
	q.leaf[i>>3][i&7] = k
	q.l1[i>>6][i>>3&7] = max(q.l1[i>>6][i>>3&7], k)
	q.l1[t>>6][t>>3&7] = max8(&q.leaf[t>>3])
	q.l2[i>>6] = max(q.l2[i>>6], k)
	q.l2[t>>6] = max8(&q.l1[t>>6])
	q.min = max(q.l2[0], q.l2[1], q.l2[2], q.l2[3])
	return top
}

// decreaseKey moves thread id's pending event to the earlier cycle. The
// engine's wake path uses it to pull a bounded waiter's deadline event
// forward to the poll boundary computed from a lock release; the new
// cycle must not exceed the event's current one. It panics if no event
// with the given id is queued, which would be an engine bug.
func (q *eventQueue) decreaseKey(id int32, cycle uint64) {
	if q.leaf[uint8(id)>>3][id&7] == 0 {
		panic("machine: decreaseKey on a thread with no queued event")
	}
	q.raise(uint8(id), event{cycle: cycle, id: id}.key())
}
