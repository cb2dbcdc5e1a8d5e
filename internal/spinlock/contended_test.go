package spinlock

import (
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// Contended-lock tests: many threads hammering one lock through the
// park/wake path, on engines wired like the runtime's. These run in CI
// under -race as well; the engine is single-goroutine, so a race report
// here would mean engine state leaked across coroutine switches.

func contendedEnv(t *testing.T, threads int) (*machine.Engine, *mem.Memory, Lock) {
	t.Helper()
	cfg := machine.Config{Topo: topology.Flat(threads), Seed: 3, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 10)
	Wire(eng, m)
	return eng, m, New(m)
}

// requireDelegated fails unless the run took the production lock path:
// the engine ran acquire steps itself and settled deferred acquirers.
func requireDelegated(t *testing.T, eng *machine.Engine) {
	t.Helper()
	if c := eng.Counters(); c.Steps == 0 || c.Settled == 0 {
		t.Fatalf("engine counters %+v: the storm did not run the delegated lock path", c)
	}
}

// TestContendedAcquireStorm: every thread loops acquire → critical section
// → release on one lock. Mutual exclusion must hold throughout, every
// thread must make progress, and the schedule must be deterministic.
func TestContendedAcquireStorm(t *testing.T) {
	const threads, iters = 8, 40
	run := func() uint64 {
		eng, m, lk := contendedEnv(t, threads)
		inCrit := 0
		counter := 0
		bodies := make([]func(*machine.Ctx), threads)
		for i := range bodies {
			bodies[i] = func(c *machine.Ctx) {
				for n := 0; n < iters; n++ {
					lk.Acquire(c, m)
					inCrit++
					if inCrit != 1 {
						t.Errorf("mutual exclusion violated: %d threads in critical section", inCrit)
					}
					c.Work(uint64(5 + n%7))
					counter++
					inCrit--
					lk.Release(c, m)
					c.Work(3)
				}
			}
		}
		ms, err := eng.Run(bodies)
		if err != nil {
			t.Fatal(err)
		}
		if counter != threads*iters {
			t.Fatalf("counter = %d, want %d", counter, threads*iters)
		}
		requireDelegated(t, eng)
		return ms
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("storm makespan not deterministic: %d vs %d", again, first)
	}
}

// TestContendedWaitersDrainInOrder: several parked waiters woken by one
// release must re-enter the schedule in (cycle, id) order, so the lock is
// handed over deterministically.
func TestContendedWaitersDrainInOrder(t *testing.T) {
	const threads = 6
	eng, m, lk := contendedEnv(t, threads)
	var order []int
	bodies := make([]func(*machine.Ctx), threads)
	bodies[0] = func(c *machine.Ctx) {
		lk.Acquire(c, m)
		c.Work(2000) // hold long enough for every waiter to park
		lk.Release(c, m)
	}
	for i := 1; i < threads; i++ {
		bodies[i] = func(c *machine.Ctx) {
			c.Work(uint64(10 * c.ID())) // stagger the poll trains
			lk.Acquire(c, m)
			order = append(order, c.ID())
			c.Work(10)
			lk.Release(c, m)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if len(order) != threads-1 {
		t.Fatalf("%d acquisitions, want %d", len(order), threads-1)
	}
	seen := make(map[int]bool)
	for _, id := range order {
		if seen[id] {
			t.Fatalf("thread %d acquired twice: %v", id, order)
		}
		seen[id] = true
	}
}

// TestBoundedWaitFreedEarly: a bounded cooperative wait whose holder
// releases mid-budget must observe the lock free (woken, not timed out).
func TestBoundedWaitFreedEarly(t *testing.T) {
	eng, m, lk := contendedEnv(t, 2)
	var freed bool
	if _, err := eng.Run([]func(*machine.Ctx){
		func(c *machine.Ctx) {
			lk.Acquire(c, m)
			c.Work(700)
			lk.Release(c, m)
		},
		func(c *machine.Ctx) {
			c.Work(1) // let thread 0 take the lock first
			freed = lk.SpinWhileLockedBounded(c, 1<<20)
			if c.Clock() > 2000 {
				t.Errorf("waiter resumed at %d, long after the release", c.Clock())
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Fatal("bounded wait timed out despite an early release")
	}
}

// TestContendedStormPast64Threads reruns the acquire storm with 96
// threads on a two-socket machine: lock handoff, parking and the
// engine's wake path must stay correct and deterministic when waiter
// ids span multiple words of the scheduler's occupancy bitset.
func TestContendedStormPast64Threads(t *testing.T) {
	const iters = 6
	topo := topology.Multi(2, 24, 2) // 96 threads
	run := func() uint64 {
		cfg := machine.Config{Topo: topo, Seed: 3, Cost: machine.DefaultCostModel()}
		eng, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New(1 << 10)
		Wire(eng, m)
		lk := New(m)
		threads := topo.Threads()
		inCrit := 0
		counter := 0
		bodies := make([]func(*machine.Ctx), threads)
		for i := range bodies {
			bodies[i] = func(c *machine.Ctx) {
				for n := 0; n < iters; n++ {
					lk.Acquire(c, m)
					inCrit++
					if inCrit != 1 {
						t.Errorf("mutual exclusion violated: %d threads in critical section", inCrit)
					}
					c.Work(uint64(5 + n%7))
					counter++
					inCrit--
					lk.Release(c, m)
					c.Work(3)
				}
			}
		}
		ms, err := eng.Run(bodies)
		if err != nil {
			t.Fatal(err)
		}
		if counter != threads*iters {
			t.Fatalf("counter = %d, want %d", counter, threads*iters)
		}
		requireDelegated(t, eng)
		return ms
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("96-thread storm makespan not deterministic: %d vs %d", again, first)
	}
}
