package machine

import "math/bits"

// event is one pending wakeup in the engine's schedule: thread id resumes
// when the global virtual time reaches cycle.
type event struct {
	cycle uint64
	id    int32
}

// before orders events by (cycle, id): earlier virtual time first, ties
// broken by the lower thread id. The id tie-break is what makes the
// schedule total and therefore the whole simulation deterministic — it
// mirrors the seed engine's linear scan, which resolved equal clocks in
// favor of the lowest index.
func (a event) before(b event) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.id < b.id)
}

// queueWords is the width of the occupancy bitmask: one bit per
// hardware thread id up to MaxHWThreads.
const queueWords = MaxHWThreads / 64

// groupBits is the log2 of the id-group granularity of the lowest cache
// level: ids are grouped in runs of 8, one occupancy byte per group.
const groupBits = 3

// eventQueue is the scheduler's pending-wakeup set, ordered by
// event.before. The engine queues at most one event per hardware thread
// (its next wakeup, or its park deadline), so the queue is a flat
// per-thread cycle array plus a hierarchical occupancy bitmap with
// cached minima at every level:
//
//   - active[w] has one bit per thread id in [64w, 64w+64); summary has
//     bit w set iff active[w] != 0, so the occupied words are found with
//     TrailingZeros64 hops over one word instead of a scan of all
//     queueWords.
//   - groupMin[g] caches the minimum event among ids [8g, 8g+8), valid
//     while the group's occupancy byte in its active word is nonzero.
//   - wordMin[w] caches the minimum over word w's groups, valid while
//     the summary bit is set; min caches the global minimum.
//
// Removing the minimum — the hot operation of every scheduling step —
// therefore rescans at most the 8 ids of one group, recombines at most
// the 8 group minima of one word, and recombines the ≤ queueWords word
// minima through the summary walk: O(8 + 8 + queueWords) independent of
// how many threads are live. The flat predecessor rescanned every live
// id on every pop, which was the profile's top cost at the 128–256-
// thread scaling shapes.
//
// Every level resolves ties by visiting candidates in ascending id
// order with a strict cycle comparison, so the cached minima always
// carry the lowest id for their cycle — exactly event.before's total
// order, which is what keeps schedules bit-for-bit reproducible.
type eventQueue struct {
	n       int                // number of queued events
	min     event              // cached minimum; valid only while n != 0
	summary uint64             // bit w set iff active[w] != 0
	active  [queueWords]uint64 // bitmask of thread ids with a queued event
	wordMin [queueWords]event  // per-word cached minimum; valid while the summary bit is set
	// groupMin caches per-8-id-group minima; entry g is valid while byte
	// g&7 of active[g>>3] is nonzero.
	groupMin [queueWords << groupBits]event
	cycles   [MaxHWThreads]uint64
}

// empty reports whether no events are queued.
func (q *eventQueue) empty() bool { return q.n == 0 }

// clear discards all queued events.
func (q *eventQueue) clear() {
	q.n = 0
	q.summary = 0
	q.active = [queueWords]uint64{}
}

// groupMask returns the occupancy byte of group g within its active
// word, positioned in place.
func groupMask(g uint32) uint64 {
	return 0xFF << ((g & 7) << 3)
}

// insert adds thread ev.id's wakeup to the bitmap and the group/word min
// caches without touching the global cached minimum or the event count.
func (q *eventQueue) insert(ev event) {
	q.cycles[ev.id] = ev.cycle
	w := uint32(ev.id) >> 6
	g := uint32(ev.id) >> groupBits
	if q.active[w]&groupMask(g) == 0 || ev.before(q.groupMin[g]) {
		q.groupMin[g] = ev
	}
	if q.summary&(1<<w) == 0 {
		q.summary |= 1 << w
		q.wordMin[w] = ev
	} else if ev.before(q.wordMin[w]) {
		q.wordMin[w] = ev
	}
	q.active[w] |= 1 << (uint32(ev.id) & 63)
}

// push inserts thread ev.id's wakeup. The thread must not already have an
// event queued (the engine pops a thread's event before the thread can
// push a new one).
func (q *eventQueue) push(ev event) {
	q.insert(ev)
	if q.n == 0 || ev.before(q.min) {
		q.min = ev
	}
	q.n++
}

// remove deletes thread id's event from the bitmap, keeping the group
// and word min caches valid: a cache is rebuilt only when the removed id
// was its cached minimum (for the pop path that is exactly one group
// rescan and one word recombine). The global minimum is NOT recomputed
// here.
func (q *eventQueue) remove(id int32) {
	w := uint32(id) >> 6
	q.active[w] &^= 1 << (uint32(id) & 63)
	q.n--
	if q.active[w] == 0 {
		q.summary &^= 1 << w
		return
	}
	g := uint32(id) >> groupBits
	if q.active[w]&groupMask(g) != 0 && q.groupMin[g].id == id {
		q.rescanGroup(g)
	}
	if q.wordMin[w].id == id {
		q.rescanWord(w)
	}
}

// rescanGroup recomputes groupMin[g] from the group's live ids. Ids are
// visited in ascending order, so the strict cycle comparison resolves
// ties in favor of the lowest id. The group must be occupied.
func (q *eventQueue) rescanGroup(g uint32) {
	m := (q.active[g>>3] >> ((g & 7) << 3)) & 0xFF
	base := int32(g << groupBits)
	id := base + int32(bits.TrailingZeros64(m))
	best := event{cycle: q.cycles[id], id: id}
	for m &= m - 1; m != 0; m &= m - 1 {
		id = base + int32(bits.TrailingZeros64(m))
		if c := q.cycles[id]; c < best.cycle {
			best = event{cycle: c, id: id}
		}
	}
	q.groupMin[g] = best
}

// rescanWord recomputes wordMin[w] by combining the word's occupied
// group minima, visited in ascending group order (lower groups hold
// lower ids, so the strict cycle comparison keeps event.before's
// tie-break). The word must be occupied, and its group caches valid.
func (q *eventQueue) rescanWord(w uint32) {
	m := q.active[w]
	gbase := w << groupBits
	k := uint32(bits.TrailingZeros64(m)) >> 3
	best := q.groupMin[gbase+k]
	for m &^= 0xFF << (k << 3); m != 0; m &^= 0xFF << (k << 3) {
		k = uint32(bits.TrailingZeros64(m)) >> 3
		if gm := q.groupMin[gbase+k]; gm.cycle < best.cycle {
			best = gm
		}
	}
	q.wordMin[w] = best
}

// combine recomputes the global cached minimum from the per-word minima,
// walking only the occupied words via the summary bitmap — again in
// ascending order with a strict comparison, realizing event.before's
// total order. Must not be called on an empty queue.
func (q *eventQueue) combine() {
	s := q.summary
	w := uint32(bits.TrailingZeros64(s))
	best := q.wordMin[w]
	for s &= s - 1; s != 0; s &= s - 1 {
		w = uint32(bits.TrailingZeros64(s))
		if wm := q.wordMin[w]; wm.cycle < best.cycle {
			best = wm
		}
	}
	q.min = best
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
func (q *eventQueue) pop() event {
	top := q.min
	q.remove(top.id)
	if q.n != 0 {
		q.combine()
	}
	return top
}

// replaceMin files ev — the next event of the thread whose event the
// scheduler loop just processed — and returns the event to process next:
// ev itself, with no queue traffic at all, when it precedes every queued
// event; otherwise the queue minimum, with ev swapped in for it in one
// restructuring pass instead of a push plus a pop.
func (q *eventQueue) replaceMin(ev event) event {
	if q.n == 0 || ev.before(q.min) {
		return ev
	}
	top := q.min
	q.remove(top.id)
	q.insert(ev)
	q.n++
	q.combine()
	return top
}

// decreaseKey moves thread id's pending event to the earlier cycle. The
// engine's wake path uses it to pull a bounded waiter's deadline event
// forward to the poll boundary computed from a lock release; the new
// cycle must not exceed the event's current one. It panics if no event
// with the given id is queued, which would be an engine bug.
func (q *eventQueue) decreaseKey(id int32, cycle uint64) {
	w := uint32(id) >> 6
	if q.active[w]&(1<<(uint32(id)&63)) == 0 {
		panic("machine: decreaseKey on a thread with no queued event")
	}
	q.cycles[id] = cycle
	ev := event{cycle: cycle, id: id}
	if ev.before(q.groupMin[uint32(id)>>groupBits]) {
		q.groupMin[uint32(id)>>groupBits] = ev
	}
	if ev.before(q.wordMin[w]) {
		q.wordMin[w] = ev
	}
	if ev.before(q.min) {
		q.min = ev
	}
}
