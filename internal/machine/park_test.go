package machine

import (
	"errors"
	"slices"
	"testing"

	"seer/internal/topology"
)

// The park/wake tests drive ParkOnWord/WakeKey directly, so every wake
// resumes the waiter, with hand-rolled poll loops mirroring the spinlock
// package's shape: poll (Tick(load) + check), park on busy, re-poll after
// the wake. Observation equivalence against real spinning is asserted by
// comparing the exact clocks at which polls happen.

const (
	tpPeriod   = 27 // SpinQuantum + DirectLoad of the default cost model
	tpPollCost = 2  // DirectLoad
)

// spinUntil simulates the ticking loop ParkOnWord replaces: poll every
// tpPeriod cycles until pred() is true, and return the cycle of the
// observing poll.
func spinUntil(c *Ctx, pred func() bool) uint64 {
	for {
		c.Tick(tpPollCost)
		if pred() {
			return c.Clock()
		}
		c.Tick(tpPeriod - tpPollCost)
	}
}

// parkEngine builds an engine with n hardware threads for park tests.
func parkEngine(t *testing.T, n int) *Engine {
	t.Helper()
	cores := n
	return mustEngine(t, Config{Topo: topology.MustFromFlat(n, cores), Seed: 1, Cost: DefaultCostModel()})
}

// parkUntil is the event-driven equivalent: poll once, park on key while
// pred() is false.
func parkUntil(c *Ctx, key uint64, pred func() bool) uint64 {
	for {
		c.Tick(tpPollCost)
		if pred() {
			return c.Clock()
		}
		c.ParkOnWord(key, tpPeriod, tpPollCost, 0)
	}
}

// TestParkObservationEquivalence: for a range of release cycles, a parked
// waiter must observe the flag at exactly the poll cycle the ticking loop
// observes it at.
func TestParkObservationEquivalence(t *testing.T) {
	for rel := uint64(1); rel < 200; rel += 7 {
		var spinObs, parkObs uint64
		for variant := 0; variant < 2; variant++ {
			eng := parkEngine(t, 2)
			flag := false
			obs := &spinObs
			wait := spinUntil
			if variant == 1 {
				obs = &parkObs
				wait = func(c *Ctx, pred func() bool) uint64 {
					return parkUntil(c, 42, pred)
				}
			}
			if _, err := eng.Run([]func(*Ctx){
				func(c *Ctx) {
					*obs = wait(c, func() bool { return flag })
				},
				func(c *Ctx) {
					c.Tick(rel)
					flag = true
					c.WakeKey(42)
				},
			}); err != nil {
				t.Fatalf("rel=%d variant=%d: %v", rel, variant, err)
			}
		}
		if spinObs != parkObs {
			t.Fatalf("rel=%d: spin observes at %d, park at %d", rel, spinObs, parkObs)
		}
	}
}

// TestParkWakeSameCycleTieBreak: a release at exactly a waiter's poll
// boundary is observable in that slot only by waiters with a higher
// thread id than the releaser (the event order runs the lower id first).
func TestParkWakeSameCycleTieBreak(t *testing.T) {
	// Thread 1 releases at cycle 2+27k (a boundary of thread 0's and
	// thread 2's poll trains, which both start polling at cycle 2).
	rel := uint64(2 + 27*3)
	for variant := 0; variant < 2; variant++ {
		eng := parkEngine(t, 3)
		flag := false
		var lowObs, highObs uint64
		wait := spinUntil
		if variant == 1 {
			wait = func(c *Ctx, pred func() bool) uint64 {
				return parkUntil(c, 7, pred)
			}
		}
		if _, err := eng.Run([]func(*Ctx){
			func(c *Ctx) { lowObs = wait(c, func() bool { return flag }) },
			func(c *Ctx) {
				c.Tick(rel)
				flag = true
				c.WakeKey(7)
			},
			func(c *Ctx) { highObs = wait(c, func() bool { return flag }) },
		}); err != nil {
			t.Fatalf("variant=%d: %v", variant, err)
		}
		// Thread 0 (id below the releaser) polls at rel before the release
		// runs: it cannot observe until the next boundary. Thread 2 polls
		// at rel after the release: it observes in the same slot.
		if lowObs != rel+27 {
			t.Errorf("variant=%d: low-id waiter observed at %d, want %d", variant, lowObs, rel+27)
		}
		if highObs != rel {
			t.Errorf("variant=%d: high-id waiter observed at %d, want %d", variant, highObs, rel)
		}
	}
}

// TestBoundedParkDeadline: with no wake, a bounded park resumes at its
// final poll boundary, exactly where a bounded spin loop gives up.
func TestBoundedParkDeadline(t *testing.T) {
	eng := parkEngine(t, 1)
	const budget = 5
	var polls int
	var gaveUpAt uint64
	if _, err := eng.Run([]func(*Ctx){func(c *Ctx) {
		i := 0
		for {
			c.Tick(tpPollCost)
			polls++
			if i >= budget {
				gaveUpAt = c.Clock()
				return
			}
			before := c.Clock()
			c.ParkOnWord(99, tpPeriod, tpPollCost, budget-i)
			i += int((c.Clock() + tpPollCost - before) / tpPeriod)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	// First poll at tpPollCost, then budget more boundaries.
	if want := uint64(tpPollCost + budget*tpPeriod); gaveUpAt != want {
		t.Errorf("gave up at cycle %d, want %d", gaveUpAt, want)
	}
	// The park jumps straight to the deadline: exactly two simulated polls.
	if polls != 2 {
		t.Errorf("simulated %d polls, want 2 (first + deadline)", polls)
	}
}

// TestBoundedParkWakeKeepsBudget: a wake partway through a bounded park
// must charge the skipped boundaries against the poll budget.
func TestBoundedParkWakeKeepsBudget(t *testing.T) {
	eng := parkEngine(t, 2)
	const budget = 10
	busy := true
	var gaveUp bool
	var doneAt uint64
	if _, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			i := 0
			for {
				c.Tick(tpPollCost)
				if !busy {
					return
				}
				if i >= budget {
					gaveUp = true
					doneAt = c.Clock()
					return
				}
				before := c.Clock()
				c.ParkOnWord(5, tpPeriod, tpPollCost, budget-i)
				i += int((c.Clock() + tpPollCost - before) / tpPeriod)
			}
		},
		func(c *Ctx) {
			// Wake after ~4 boundaries without freeing the flag: the waiter
			// re-parks with its remaining budget and gives up on schedule.
			c.Tick(tpPollCost + 4*tpPeriod - 3)
			c.WakeKey(5)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !gaveUp {
		t.Fatal("waiter did not give up")
	}
	if want := uint64(tpPollCost + budget*tpPeriod); doneAt != want {
		t.Errorf("gave up at cycle %d, want %d (budget unaffected by spurious wake)", doneAt, want)
	}
}

// TestParkDeadlock: when every remaining thread parks unboundedly with no
// waker left, Run must fail with ErrDeadlock instead of hanging, and the
// engine must stay reusable.
func TestParkDeadlock(t *testing.T) {
	eng := parkEngine(t, 2)
	_, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOnWord(1, tpPeriod, tpPollCost, 0)
			t.Error("waiter 0 resumed without a wake")
		},
		func(c *Ctx) {
			c.Tick(5)
			c.ParkOnWord(2, tpPeriod, tpPollCost, 0)
			t.Error("waiter 1 resumed without a wake")
		},
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// The engine must be immediately reusable after the drain.
	makespan, err := eng.Run([]func(*Ctx){func(c *Ctx) { c.Tick(10) }})
	if err != nil || makespan != 10 {
		t.Fatalf("reuse after deadlock: makespan=%d err=%v", makespan, err)
	}
}

// TestParkSkippedAccounting: the skipped-cycles counter must equal the
// virtual time the waiter did not simulate (park cycle to re-poll start).
func TestParkSkippedAccounting(t *testing.T) {
	eng := parkEngine(t, 2)
	flag := false
	var skipped, parkedAt, resumedAt uint64
	if _, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			parkedAt = c.Clock()
			c.ParkOnWord(3, tpPeriod, tpPollCost, 0)
			resumedAt = c.Clock()
			c.Tick(tpPollCost)
			if !flag {
				t.Error("woken waiter does not observe the flag")
			}
			skipped = c.ParkSkipped()
		},
		func(c *Ctx) {
			c.Tick(500)
			flag = true
			c.WakeKey(3)
		},
	}); err != nil {
		t.Fatal(err)
	}
	if want := resumedAt - parkedAt; skipped != want {
		t.Errorf("ParkSkipped() = %d, want %d", skipped, want)
	}
	if skipped == 0 {
		t.Error("no cycles skipped across a 500-cycle wait")
	}
}

// TestWakeKeyIsSelective: a wake on one key must not disturb threads
// parked on another.
func TestWakeKeyIsSelective(t *testing.T) {
	eng := parkEngine(t, 3)
	_, err := eng.Run([]func(*Ctx){
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOnWord(10, tpPeriod, tpPollCost, 0)
			// Woken by the matching WakeKey(10) below.
		},
		func(c *Ctx) {
			c.Tick(tpPollCost)
			c.ParkOnWord(11, tpPeriod, tpPollCost, 0)
			t.Error("thread parked on key 11 woken by WakeKey(10)")
		},
		func(c *Ctx) {
			c.Tick(100)
			c.WakeKey(10)
		},
	})
	// Thread 1 stays parked forever once the others finish.
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock for the unwoken key", err)
	}
}

// TestParkedRunsAreDeterministic: repeated runs with parked waiters must
// produce identical makespans (engine reuse resets all park state).
func TestParkedRunsAreDeterministic(t *testing.T) {
	eng := parkEngine(t, 4)
	verify := watchStates(t, eng, nil)
	run := func() uint64 {
		flag := false
		ms, err := eng.Run([]func(*Ctx){
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) },
			func(c *Ctx) {
				c.Tick(997)
				flag = true
				c.WakeKey(1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		verify()
		return ms
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d makespan %d, want %d", i+1, got, first)
		}
	}
}

// wakeKeyFullScan is the walk WakeKey's parked-id set replaced: every
// context of the machine dereferenced and filtered, in ascending id order.
func wakeKeyFullScan(c *Ctx, key uint64) {
	e := c.eng
	for _, t := range e.threads {
		if t.state == parked && t.parkKey == key {
			e.wake(t, c.clock, int32(c.id))
		}
	}
	c.batchLimit = e.horizonFor(int32(c.id))
}

// wakeSnap is the engine state a release leaves behind.
type wakeSnap struct {
	queue    eventQueue
	wakeable topology.Set
}

// runWakeScenario parks n-1 waiters on two held words — unbounded and
// bounded parks, staggered so that releases find them in every state —
// and has thread 0 release each word repeatedly through wake: four rounds
// with the word still held (woken waiters poll it busy and re-park, a
// bounded one at its deadline resumes and re-parks) and a back-to-back
// second release each round (which must skip the waiters the first
// woke), then a final round that frees both. With wired, every third
// waiter takes its word through a delegated acquire instead, so its wakes
// queue it polling and the loop runs its polls; once it holds the word it
// releases it through wake too. It returns the engine state after every
// release, every waiter's clock at every return from a park or an
// acquire, the hook stream and the number of threads the releases woke.
func runWakeScenario(t *testing.T, n int, wired bool, wake func(*Ctx, uint64)) (snaps []wakeSnap, returns []event, hooks []uint64, wakes int) {
	t.Helper()
	eng := parkEngine(t, n)
	words := [2]uint64{1, 1}
	if wired {
		eng.SetLockWordOps(
			func(_ int, key uint64) uint64 { return words[key] },
			func(_ int, key uint64, v uint64) { words[key] = v })
	}
	verify := watchStates(t, eng, func(now uint64) { hooks = append(hooks, now) })
	release := func(c *Ctx, key uint64) {
		parked := eng.wakeable.Count()
		wake(c, key)
		wakes += parked - eng.wakeable.Count()
		snaps = append(snaps, wakeSnap{eng.queue, eng.wakeable})
	}
	bodies := make([]func(*Ctx), n)
	bodies[0] = func(c *Ctx) {
		for round := uint64(0); round < 10; round++ {
			c.Tick(40 + 13*round)
			if round >= 8 {
				words[round&1] = 0
			}
			release(c, round&1)
			release(c, round&1)
		}
	}
	for i := 1; i < n; i++ {
		bodies[i] = func(c *Ctx) {
			key := uint64(i & 1)
			c.Tick(uint64(1 + i%7))
			if wired && i%3 == 0 {
				c.AcquireWord(key, uint64(i)+1)
				returns = append(returns, event{cycle: c.Clock(), id: int32(i)})
				c.Tick(taCAS)
				words[key] = 0
				release(c, key)
				return
			}
			for {
				c.Tick(tpPollCost)
				if words[key] == 0 {
					return
				}
				if i%3 != 2 {
					c.ParkOnWord(key, tpPeriod, tpPollCost, 0)
				} else {
					c.ParkOnWord(key, tpPeriod, tpPollCost, 3)
					c.Tick(uint64(20 + i%11)) // runnable, not parked, across some releases
				}
				returns = append(returns, event{cycle: c.Clock(), id: int32(i)})
			}
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	verify()
	return snaps, returns, hooks, wakes
}

// TestWakeKeyMatchesFullScan: walking the parked-id set must wake the
// same threads in the same order as scanning every context — the queue
// and the set equal after every release, and every waiter back from its
// park at the same clock, in the same sequence — with plain waiters only
// and with delegated acquirers among them.
func TestWakeKeyMatchesFullScan(t *testing.T) {
	for _, n := range []int{8, 128} {
		for _, wired := range []bool{false, true} {
			snaps, returns, hooks, wakes := runWakeScenario(t, n, wired, (*Ctx).WakeKey)
			refSnaps, refReturns, refHooks, _ := runWakeScenario(t, n, wired, wakeKeyFullScan)
			if wakes < 4*(n-1) {
				t.Fatalf("n=%d wired=%v: only %d wakes; the scenario did not exercise the wake path", n, wired, wakes)
			}
			if len(snaps) != len(refSnaps) {
				t.Fatalf("n=%d wired=%v: %d releases, the full scan's run %d", n, wired, len(snaps), len(refSnaps))
			}
			for i := range snaps {
				if snaps[i] != refSnaps[i] {
					t.Fatalf("n=%d wired=%v: engine state after release %d differs from the full scan's", n, wired, i)
				}
			}
			if !slices.Equal(returns, refReturns) {
				t.Fatalf("n=%d wired=%v: waiters return from their parks in a different order or at different clocks", n, wired)
			}
			if !slices.Equal(hooks, refHooks) {
				t.Fatalf("n=%d wired=%v: hook streams differ (%d vs %d)", n, wired, len(hooks), len(refHooks))
			}
		}
	}
}
