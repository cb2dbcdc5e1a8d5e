package machine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"seer/internal/topology"
)

// before is the reference (cycle, id) order the packed keys must realize:
// earlier virtual time first, ties broken by the lower thread id.
func (a event) before(b event) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.id < b.id)
}

// TestEventQueueTieBreak: events with equal wakeup cycles must pop in
// thread-id order — the rule that makes the schedule total and the
// simulation deterministic.
func TestEventQueueTieBreak(t *testing.T) {
	insertions := [][]int32{
		{3, 0, 2, 1},
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 3, 0, 2},
	}
	for _, ids := range insertions {
		var q eventQueue
		for _, id := range ids {
			q.push(event{cycle: 7, id: id})
		}
		for want := int32(0); want < 4; want++ {
			if got := q.pop(); got.id != want || got.cycle != 7 {
				t.Fatalf("insertion order %v: pop = %+v, want id %d", ids, got, want)
			}
		}
	}
}

// TestEventQueueInterleavedTies mixes cycles and ids: pops must come out
// in (cycle, id) lexicographic order even when pushes interleave with
// pops.
func TestEventQueueInterleavedTies(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 10, id: 2})
	q.push(event{cycle: 10, id: 1})
	q.push(event{cycle: 5, id: 3})
	if got := q.pop(); got != (event{cycle: 5, id: 3}) {
		t.Fatalf("pop = %+v, want {5 3}", got)
	}
	q.push(event{cycle: 5, id: 0}) // earlier than both queued events
	q.push(event{cycle: 10, id: 3})
	want := []event{{5, 0}, {10, 1}, {10, 2}, {10, 3}}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
	if !q.empty() {
		t.Fatalf("queue not empty after draining: %+v", q)
	}
}

// TestEventQueueReplaceMin: the combined swap must return the old minimum
// and leave the queue ordered, including when the incoming event ties an
// existing one.
func TestEventQueueReplaceMin(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 4, id: 2})
	q.push(event{cycle: 9, id: 1})
	if got := q.replaceMin(event{cycle: 9, id: 0}); got != (event{cycle: 4, id: 2}) {
		t.Fatalf("replaceMin = %+v, want {4 2}", got)
	}
	want := []event{{9, 0}, {9, 1}}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
	}
}

// TestEventQueueQuickSorted: for random per-thread cycle assignments (one
// event per thread, as the engine guarantees), popping yields the
// (cycle, id)-sorted order.
func TestEventQueueQuickSorted(t *testing.T) {
	f := func(cycles []uint16) bool {
		n := len(cycles)
		if n > MaxHWThreads {
			n = MaxHWThreads
		}
		var q eventQueue
		evs := make([]event, n)
		for i := 0; i < n; i++ {
			evs[i] = event{cycle: uint64(cycles[i]), id: int32(i)}
			q.push(evs[i])
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
		for _, want := range evs {
			if got := q.pop(); got != want {
				return false
			}
		}
		return q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueDecreaseKey: pulling a queued event forward must reorder
// it ahead of events it now precedes.
func TestEventQueueDecreaseKey(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 50, id: 0})
	q.push(event{cycle: 20, id: 1})
	q.decreaseKey(0, 10)
	if got := q.pop(); got != (event{cycle: 10, id: 0}) {
		t.Fatalf("pop = %+v, want {10 0}", got)
	}
	if got := q.pop(); got != (event{cycle: 20, id: 1}) {
		t.Fatalf("pop = %+v, want {20 1}", got)
	}
}

// TestEventQueueWide: the tree must preserve (cycle, id) order for
// thread ids in every subtree — 65 ids straddle the first root child's
// boundary, 128 and 256 exercise two and all four of them, and
// equal-cycle pushes pin the id tie-break across subtrees.
func TestEventQueueWide(t *testing.T) {
	for _, n := range []int{65, 128, MaxHWThreads} {
		// Equal cycles: ids must drain in ascending order across words.
		var q eventQueue
		for id := n - 1; id >= 0; id-- {
			q.push(event{cycle: 7, id: int32(id)})
		}
		for want := int32(0); want < int32(n); want++ {
			if got := q.pop(); got != (event{cycle: 7, id: want}) {
				t.Fatalf("n=%d: pop = %+v, want {7 %d}", n, got, want)
			}
		}
		if !q.empty() {
			t.Fatalf("n=%d: queue not empty after draining", n)
		}

		// Distinct cycles arranged so the minimum hops between subtrees:
		// id i sleeps until cycle n-i, so the highest id pops first.
		q.clear()
		for id := 0; id < n; id++ {
			q.push(event{cycle: uint64(n - id), id: int32(id)})
		}
		for want := int32(n - 1); want >= 0; want-- {
			if got := q.pop(); got.id != want {
				t.Fatalf("n=%d: pop id = %d, want %d", n, got.id, want)
			}
		}
	}
}

// TestEventQueueWideQuick: the random one-event-per-thread property at
// full width, forcing id assignments beyond 64 so every subtree of the
// root participates.
func TestEventQueueWideQuick(t *testing.T) {
	f := func(cycles [MaxHWThreads]uint16) bool {
		var q eventQueue
		evs := make([]event, len(cycles))
		for i, c := range cycles {
			evs[i] = event{cycle: uint64(c), id: int32(i)}
			q.push(evs[i])
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
		for _, want := range evs {
			if got := q.pop(); got != want {
				return false
			}
		}
		return q.empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants asserts the queue's whole structure by brute force: the
// live leaf count equals n, the cached minimum is the true (cycle, id)
// minimum over the live leaves (0 when there are none), and every interior
// node is the greatest key among its children. Tests call it after every
// mutation, so a node that goes stale — even transiently — fails at the op
// that corrupted it.
func checkInvariants(t *testing.T, q *eventQueue) {
	t.Helper()
	live, haveMin := 0, false
	var wantMin event
	for g := range q.leaf {
		for _, k := range q.leaf[g] {
			if k == 0 {
				continue
			}
			live++
			if ev := k.event(); !haveMin || ev.before(wantMin) {
				wantMin, haveMin = ev, true
			}
		}
		if got, want := q.l1[g>>3][g&7], slices.Max(q.leaf[g][:]); got != want {
			t.Fatalf("l1[%d][%d] = %#x, want max of its leaves %#x", g>>3, g&7, got, want)
		}
	}
	for w := range q.l1 {
		if got, want := q.l2[w], slices.Max(q.l1[w][:]); got != want {
			t.Fatalf("l2[%d] = %#x, want max of its children %#x", w, got, want)
		}
	}
	if q.n != live {
		t.Fatalf("n = %d, live leaves = %d", q.n, live)
	}
	if q.min != slices.Max(q.l2[:]) {
		t.Fatalf("min = %#x, want max of the root's children %#x", q.min, slices.Max(q.l2[:]))
	}
	if haveMin && q.min.event() != wantMin || !haveMin && q.min != 0 {
		t.Fatalf("min = %+v (key %#x), want %+v (live %d)", q.min.event(), q.min, wantMin, live)
	}
}

// cycleOf returns the cycle of thread id's queued event.
func (q *eventQueue) cycleOf(id int32) uint64 { return q.leaf[id>>3][id&7].event().cycle }

// TestEventQueueInvariants checks the full invariant set after every
// single mutation of a randomized op mix, at widths chosen to sit on
// both sides of the tree's fan-out boundaries (63/64/65 around the first
// root child, 255/256 at the id-space edge).
func TestEventQueueInvariants(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128, 255, MaxHWThreads} {
		var q eventQueue
		checkInvariants(t, &q)
		rng := uint64(0x2545f4914f6cdd1d) ^ uint64(n)
		next := func(mod uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % mod
		}
		for id := 0; id < n; id++ {
			q.push(event{cycle: next(97), id: int32(id)})
			checkInvariants(t, &q)
		}
		for step := 0; step < 3*n; step++ {
			switch next(3) {
			case 0:
				got := q.pop()
				checkInvariants(t, &q)
				q.push(event{cycle: got.cycle + 1 + next(50), id: got.id})
			case 1:
				top := q.min.event()
				q.replaceMin(event{cycle: top.cycle + 1 + next(50), id: top.id})
			case 2:
				id := int32(next(uint64(n)))
				floor := q.min.event().cycle
				if cur := q.cycleOf(id); cur > floor {
					q.decreaseKey(id, floor+next(cur-floor))
				}
			}
			checkInvariants(t, &q)
		}
		for !q.empty() {
			q.pop()
			checkInvariants(t, &q)
		}
	}
}

// TestEventQueueWideInterleaved drives a randomized mix of pop,
// replaceMin and decreaseKey against a reference model over widths
// straddling the tree's fan-out boundaries — the park/wake interleavings
// the engine generates, at widths where the minimum migrates between
// subtrees. The model is the brute-force linear scan of a per-id cycle
// map.
func TestEventQueueWideInterleaved(t *testing.T) {
	for _, n := range []int{63, 64, 65, 128, 255, MaxHWThreads} {
		var q eventQueue
		model := make(map[int32]uint64, n)
		rng := uint64(0x9e3779b97f4a7c15) ^ uint64(n)
		next := func(mod uint64) uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % mod
		}
		modelMin := func() event {
			best := event{cycle: ^uint64(0), id: int32(MaxHWThreads)}
			for id, c := range model {
				if ev := (event{cycle: c, id: id}); ev.before(best) {
					best = ev
				}
			}
			return best
		}
		for id := 0; id < n; id++ {
			c := next(64)
			q.push(event{cycle: c, id: int32(id)})
			model[int32(id)] = c
		}
		clock := uint64(0)
		for step := 0; step < 4*n; step++ {
			switch next(3) {
			case 0: // pop, then re-push at a later cycle (a thread yielding)
				want := modelMin()
				got := q.pop()
				if got != want {
					t.Fatalf("n=%d step %d: pop = %+v, want %+v", n, step, got, want)
				}
				clock = got.cycle
				delete(model, got.id)
				ev := event{cycle: clock + 1 + next(40), id: got.id}
				q.push(ev)
				model[ev.id] = ev.cycle
			case 1: // replaceMin: the resumed thread's next wakeup swaps in
				want := modelMin()
				ev := event{cycle: want.cycle + 1 + next(40), id: want.id}
				got := q.replaceMin(ev)
				if got != want {
					t.Fatalf("n=%d step %d: replaceMin = %+v, want %+v", n, step, got, want)
				}
				model[ev.id] = ev.cycle
			case 2: // decreaseKey: a wake pulls a parked deadline forward
				id := int32(next(uint64(n)))
				cur := model[id]
				floor := modelMin().cycle
				if cur <= floor {
					continue
				}
				c := floor + next(cur-floor)
				q.decreaseKey(id, c)
				model[id] = c
			}
		}
		for len(model) > 0 {
			want := modelMin()
			if got := q.pop(); got != want {
				t.Fatalf("n=%d drain: pop = %+v, want %+v", n, got, want)
			}
			delete(model, want.id)
		}
		if !q.empty() {
			t.Fatalf("n=%d: queue not empty after drain", n)
		}
	}
}

// TestEventQueueOpsAllocFree: queue mutations are on the engine's
// per-event hot path and must not allocate, including at full 256-id
// width.
func TestEventQueueOpsAllocFree(t *testing.T) {
	var q eventQueue
	for id := 0; id < MaxHWThreads; id++ {
		q.push(event{cycle: uint64(id % 17), id: int32(id)})
	}
	if avg := testing.AllocsPerRun(200, func() {
		got := q.pop()
		q.push(event{cycle: got.cycle + 13, id: got.id})
		top := q.min.event()
		got = q.replaceMin(event{cycle: top.cycle + 29, id: top.id})
		q.decreaseKey(got.id, got.cycle)
	}); avg != 0 {
		t.Fatalf("queue ops allocate %.1f allocs/op, want 0", avg)
	}
}

// TestEngineEqualClockSchedulesLowestID: two threads ticking identical
// costs must strictly alternate starting with thread 0 — the engine-level
// consequence of the queue's tie-breaking rule.
func TestEngineEqualClockSchedulesLowestID(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(3, 3), Seed: 1, Cost: DefaultCostModel()})
	var order []int
	body := func(id int) func(*Ctx) {
		return func(c *Ctx) {
			for n := 0; n < 4; n++ {
				order = append(order, id)
				c.Tick(10)
			}
		}
	}
	if _, err := e.Run([]func(*Ctx){body(0), body(1), body(2)}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}

// FuzzEventQueueModel replays a random op string — push, pop, replaceMin,
// decreaseKey, over up to 256 ids and cycles up to and past the packed
// ceiling — against the naive reference: a per-id cycle table scanned
// linearly with event.before. Every op's result must match and the tree's
// invariants must hold after each one.
func FuzzEventQueueModel(f *testing.F) {
	f.Add(uint8(7), []byte{0, 3, 9, 0, 1, 9, 1, 0, 0, 2, 3, 4, 3, 3, 1})
	f.Add(uint8(255), []byte("push every id, then drain: \x00\x01\x02\x03 and again \x01\x01\x01"))
	f.Fuzz(func(t *testing.T, width uint8, ops []byte) {
		if len(ops) > 3<<10 {
			t.Skip("op string too long")
		}
		n := int(width) + 1
		var q eventQueue
		model := make([]uint64, n) // cycle+1 of id's queued event; 0 = none
		live := 0
		modelMin := func() event {
			best := event{id: -1}
			for id, c := range model {
				if ev := (event{cycle: c - 1, id: int32(id)}); c != 0 && (best.id < 0 || ev.before(best)) {
					best = ev
				}
			}
			return best
		}
		// Each op is three bytes: kind, id selector, cycle step. A step of 255 jumps
		// to the last cycles a key can carry, and past them.
		cycle := func(base uint64, b byte) uint64 {
			if b == 255 {
				return maxEventCycle - 1 + base%3
			}
			return base + uint64(b)
		}
		// pick returns the b-th id (cyclically) that has, or has not, an
		// event queued, so every op finds an id it applies to.
		pick := func(b byte, queued bool) int32 {
			count := n - live
			if queued {
				count = live
			}
			k := int(b) % count
			for id, c := range model {
				if (c != 0) == queued {
					if k == 0 {
						return int32(id)
					}
					k--
				}
			}
			panic("unreachable")
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			switch kind := ops[0] % 4; {
			case live == 0 || kind == 0 && live < n: // push
				ev := event{cycle: cycle(uint64(ops[0]), ops[2]), id: pick(ops[1], false)}
				q.push(ev)
				model[ev.id] = min(ev.cycle, maxEventCycle) + 1
				live++
			case kind == 2 && live < n: // replaceMin: swap in an id with no event queued
				want := modelMin()
				ev := event{cycle: cycle(want.cycle, ops[2]), id: pick(ops[1], false)}
				got := q.replaceMin(ev)
				if sat := (event{cycle: min(ev.cycle, maxEventCycle), id: ev.id}); sat.before(want) {
					want = ev // precedes everything queued: handed straight back
				} else {
					model[want.id], model[ev.id] = 0, sat.cycle+1
				}
				if got != want {
					t.Fatalf("replaceMin(%+v) = %+v, want %+v", ev, got, want)
				}
			case kind == 3: // decreaseKey
				id := pick(ops[1], true)
				c := model[id] - 1
				c -= min(c, uint64(ops[2]))
				q.decreaseKey(id, c)
				model[id] = c + 1
			default: // pop
				want := modelMin()
				if got := q.pop(); got != want {
					t.Fatalf("pop = %+v, want %+v", got, want)
				}
				model[want.id] = 0
				live--
			}
			checkInvariants(t, &q)
			if q.n != live {
				t.Fatalf("n = %d, model holds %d", q.n, live)
			}
		}
		for ; live > 0; live-- {
			want := modelMin()
			if got := q.pop(); got != want {
				t.Fatalf("drain: pop = %+v, want %+v", got, want)
			}
			model[want.id] = 0
		}
		checkInvariants(t, &q)
	})
}

// TestEventQueueCycleCeiling: a key carries 56 cycle bits. Cycles up to
// maxEventCycle order exactly; anything later saturates to it, so it sorts
// after every exact event (never wrapping to the front) and keeps the id
// tie-break among its peers.
func TestEventQueueCycleCeiling(t *testing.T) {
	var q eventQueue
	q.push(event{cycle: 1 << 60, id: 3}) // cycle<<8 would wrap to 0
	q.push(event{cycle: maxEventCycle, id: 255})
	q.push(event{cycle: ^uint64(0), id: 1})
	q.push(event{cycle: maxEventCycle - 1, id: 200})
	q.push(event{cycle: 5, id: 9})
	checkInvariants(t, &q)
	want := []event{{5, 9}, {maxEventCycle - 1, 200}, {maxEventCycle, 1}, {maxEventCycle, 3}, {maxEventCycle, 255}}
	for _, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop = %+v, want %+v", got, w)
		}
		checkInvariants(t, &q)
	}
	if !q.empty() || q.min != 0 {
		t.Fatalf("queue not empty after draining: n=%d min=%#x", q.n, q.min)
	}
}

// TestClockPastPackedCeilingIsErrMaxCycles: with no MaxCycles budget at
// all, a clock the queue cannot order exactly must end the run with
// ErrMaxCycles — after the threads still inside the ceiling ran, not
// before them — and leave the engine reusable.
func TestClockPastPackedCeilingIsErrMaxCycles(t *testing.T) {
	for _, jump := range []uint64{maxEventCycle, 1 << 56, 1 << 60, ^uint64(0) - 100} {
		e := mustEngine(t, Config{Topo: topology.MustFromFlat(4, 4), Seed: 1, Cost: DefaultCostModel()})
		var ran []int
		bodies := []func(*Ctx){
			func(c *Ctx) { c.Tick(10); c.Tick(jump); ran = append(ran, 0); c.Tick(1) },
			func(c *Ctx) { c.Tick(50); ran = append(ran, 1); c.Tick(50) },
			func(c *Ctx) { c.Tick(20); c.ParkOnWord(1, 1<<57, 2, 3); ran = append(ran, 2) },
		}
		if _, err := e.Run(bodies); !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("jump %#x: err = %v, want ErrMaxCycles", jump, err)
		}
		if !slices.Equal(ran, []int{1}) {
			t.Fatalf("jump %#x: bodies past their ticks = %v, want only thread 1", jump, ran)
		}
		if ms, err := e.Run([]func(*Ctx){func(c *Ctx) { c.Tick(7) }}); err != nil || ms != 7 {
			t.Fatalf("jump %#x: reuse after ErrMaxCycles: makespan %d, err %v", jump, ms, err)
		}
	}
	// A MaxCycles budget past the ceiling cannot be honored beyond it.
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(1, 1), Seed: 1, MaxCycles: ^uint64(0), Cost: DefaultCostModel()})
	if _, err := e.Run([]func(*Ctx){func(c *Ctx) { c.Tick(3); c.Tick(1 << 58); c.Tick(1) }}); !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("MaxCycles = MaxUint64: err = %v, want ErrMaxCycles", err)
	}
}

// BenchmarkEventQueueReplaceMin is the queue's in-package layer number:
// the cost of the scheduler loop's one queue operation per event, the
// popped thread's next wakeup swapped in for the minimum, at 8, 128 and
// 256 live ids. Wakeups land a pseudo-random distance ahead, as a
// contended herd's do, so the swap almost never short-circuits.
func BenchmarkEventQueueReplaceMin(b *testing.B) {
	for _, n := range []int{8, 128, MaxHWThreads} {
		b.Run(fmt.Sprintf("%dids", n), func(b *testing.B) {
			var q eventQueue
			for id := 0; id < n; id++ {
				q.push(event{cycle: uint64(id * 7 % 64), id: int32(id)})
			}
			ev := q.pop()
			rng := uint64(0x9e3779b97f4a7c15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				ev = q.replaceMin(event{cycle: ev.cycle + 1 + rng&127, id: ev.id})
			}
			sinkEvent = ev
		})
	}
}

var sinkEvent event
