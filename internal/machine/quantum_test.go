package machine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"seer/internal/topology"
)

// quantumRun executes bodies on a fresh engine with the given SpecQuantum
// and returns the observed tick-hook stream and the makespan. The stream
// is the engine's one externally observable schedule: two configurations
// are equivalent iff their streams (and makespans) are byte-identical.
func quantumRun(t *testing.T, spec int, mk func() []func(*Ctx)) ([]uint64, uint64) {
	t.Helper()
	bodies := mk()
	e := mustEngine(t, Config{
		Topo: topology.MustFromFlat(len(bodies), 2), Seed: 7,
		Cost: DefaultCostModel(), SpecQuantum: spec,
	})
	var stream []uint64
	verify := watchStates(t, e, func(now uint64) { stream = append(stream, now) }, nil)
	makespan, err := e.Run(bodies)
	if err != nil {
		t.Fatalf("SpecQuantum=%d: %v", spec, err)
	}
	verify()
	return stream, makespan
}

// mixedBodies is a workload exercising every speculation edge: pure ticks
// that open quanta, impure ticks that close and replay them, PRNG draws
// journaled mid-quantum, a bounded park that must flush the journal, and a
// body whose final ticks are pure (trampoline flush).
func mixedBodies(draws []uint64) []func(*Ctx) {
	return []func(*Ctx){
		func(c *Ctx) { // pure/impure interleave with PRNG draws
			for i := 0; i < 40; i++ {
				c.TickPure(3)
				c.TickPure(5)
				draws[0] += c.Rand().Uint64() & 0xFF
				c.Tick(2)
			}
		},
		func(c *Ctx) { // long pure stretches against a slow ticker
			for i := 0; i < 25; i++ {
				for j := 0; j < 10; j++ {
					c.TickPure(4)
				}
				c.Tick(11)
			}
		},
		func(c *Ctx) { // park mid-stream: the journal must flush first
			for i := 0; i < 12; i++ {
				c.TickPure(7)
				c.TickPure(7)
				c.ParkOnWord(1<<62|uint64(c.ID()), 31, 0, 1)
				draws[2] += c.Rand().Uint64() & 0xFF
			}
		},
		func(c *Ctx) { // body ends on pure ticks: trampoline flush
			for i := 0; i < 30; i++ {
				c.Tick(6)
				c.TickPure(9)
			}
			c.TickPure(100)
		},
	}
}

// TestQuantumDifferentialStream pins the tentpole equivalence claim at the
// engine layer: for any quantum budget, the tick-hook stream, makespan and
// PRNG consumption are byte-identical to the per-tick (SpecQuantum=0)
// engine.
func TestQuantumDifferentialStream(t *testing.T) {
	type result struct {
		stream   []uint64
		makespan uint64
		draws    [4]uint64
	}
	run := func(spec int) result {
		var r result
		draws := make([]uint64, 4)
		r.stream, r.makespan = quantumRun(t, spec, func() []func(*Ctx) { return mixedBodies(draws) })
		copy(r.draws[:], draws)
		return r
	}
	base := run(0)
	if len(base.stream) == 0 {
		t.Fatal("baseline produced no tick events")
	}
	for _, spec := range []int{1, 2, 3, 64, 1024} {
		got := run(spec)
		if got.makespan != base.makespan {
			t.Errorf("SpecQuantum=%d: makespan %d, want %d", spec, got.makespan, base.makespan)
		}
		if got.draws != base.draws {
			t.Errorf("SpecQuantum=%d: PRNG draws %v, want %v", spec, got.draws, base.draws)
		}
		if fmt.Sprint(got.stream) != fmt.Sprint(base.stream) {
			t.Errorf("SpecQuantum=%d: tick stream diverged (len %d vs %d)",
				spec, len(got.stream), len(base.stream))
		}
	}
}

// TestQuantumGrantsAndJournalFull checks the accounting: a long pure
// stretch under a small budget opens several quanta (the journal-full path
// yields and re-opens), and the quantum counters reflect exactly the
// deferred ticks.
func TestQuantumGrantsAndJournalFull(t *testing.T) {
	mk := func() []func(*Ctx) {
		return []func(*Ctx){
			func(c *Ctx) {
				c.Tick(1)
				for i := 0; i < 20; i++ {
					c.TickPure(10)
				}
				c.Tick(1)
			},
			func(c *Ctx) { c.Tick(5) }, // keeps the horizon finite
		}
	}
	bodies := mk()
	e := mustEngine(t, Config{
		Topo: topology.MustFromFlat(2, 2), Seed: 1,
		Cost: DefaultCostModel(), SpecQuantum: 4,
	})
	if _, err := e.Run(bodies); err != nil {
		t.Fatal(err)
	}
	c := e.Counters()
	grants, ticks, rollbacks, rbTicks := c.QuantumGrants, c.QuantumTicks, c.Rollbacks, c.RollbackTicks
	if grants == 0 || ticks == 0 {
		t.Fatalf("expected speculation to engage: grants=%d ticks=%d", grants, ticks)
	}
	if ticks > grants*4 {
		t.Fatalf("journal overflow: %d ticks across %d grants of budget 4", ticks, grants)
	}
	if rollbacks != 0 || rbTicks != 0 {
		t.Fatalf("unexpected rollbacks: %d (%d ticks)", rollbacks, rbTicks)
	}
	// The same schedule must fall out of the per-tick engine.
	s0, m0 := quantumRun(t, 0, mk)
	s4, m4 := quantumRun(t, 4, mk)
	if m0 != m4 || fmt.Sprint(s0) != fmt.Sprint(s4) {
		t.Fatalf("journal-full path diverged: makespan %d vs %d, stream lens %d vs %d",
			m4, m0, len(s4), len(s0))
	}
}

// TestQuantumRollback drives the undo log directly: thread 1 interferes
// with thread 0 mid-replay, which must truncate the journal, rewind the
// clock and PRNG to the interference point, and deliver the unwinder
// payload at thread 0's next resume.
func TestQuantumRollback(t *testing.T) {
	sentinel := errors.New("rolled back")
	var (
		ctx0     *Ctx
		got      any
		gotClock uint64
	)
	bodies := []func(*Ctx){
		func(c *Ctx) {
			ctx0 = c
			c.SetUnwinder(func() any { return sentinel })
			defer func() {
				got = recover()
				gotClock = c.Clock()
			}()
			c.Tick(10) // clock 10; horizon moves to thread 1's next event
			_ = c.Rand().Uint64()
			c.TickPure(10) // clock 20: journaled (past the horizon at 15)
			_ = c.Rand().Uint64()
			c.TickPure(10) // clock 30: journaled
			c.Tick(1)      // clock 31: impure, closes the quantum -> replay
			t.Error("thread 0 ran past the rollback point")
		},
		func(c *Ctx) {
			c.Tick(15) // clock 15: pops before thread 0's replay event at 20
			ctx0.Interfere()
			c.Tick(1)
		},
	}
	e := mustEngine(t, Config{
		Topo: topology.MustFromFlat(2, 2), Seed: 3,
		Cost: DefaultCostModel(), SpecQuantum: 8,
	})
	verify := watchStates(t, e, nil, nil)
	if _, err := e.Run(bodies); err != nil {
		t.Fatal(err)
	}
	verify()
	if got != sentinel {
		t.Fatalf("recovered %v, want the unwinder sentinel", got)
	}
	if gotClock != 20 {
		t.Fatalf("rolled-back clock = %d, want 20 (the first undelivered journaled tick)", gotClock)
	}
	rollbacks, rbTicks := e.Counters().Rollbacks, e.Counters().RollbackTicks
	if rollbacks != 1 || rbTicks != 2 {
		t.Fatalf("rollbacks=%d rbTicks=%d, want 1 and 2", rollbacks, rbTicks)
	}
}

// TestQuantumRollbackRewindsPRNG reruns the rollback scenario twice and
// checks the draw taken after the rollback equals the draw the same thread
// takes at the same point in a run where speculation never engaged — i.e.
// the PRNG state was truly restored, not merely the clock.
func TestQuantumRollbackRewindsPRNG(t *testing.T) {
	sentinel := errors.New("rolled back")
	run := func(interfere bool) (drawAfter uint64) {
		var ctx0 *Ctx
		bodies := []func(*Ctx){
			func(c *Ctx) {
				ctx0 = c
				c.SetUnwinder(func() any { return sentinel })
				defer func() {
					if interfere {
						recover()
					}
					drawAfter = c.Rand().Uint64()
				}()
				c.Tick(10)
				_ = c.Rand().Uint64()
				c.TickPure(10)
				if !interfere {
					// Mirror the rolled-back run: stop at clock 20 having
					// consumed one draw past the tick to 20.
					return
				}
				_ = c.Rand().Uint64()
				c.TickPure(10)
				c.Tick(1)
			},
			func(c *Ctx) {
				c.Tick(15)
				if interfere {
					ctx0.Interfere()
				}
				c.Tick(1)
			},
		}
		e := mustEngine(t, Config{
			Topo: topology.MustFromFlat(2, 2), Seed: 11,
			Cost: DefaultCostModel(), SpecQuantum: 8,
		})
		if _, err := e.Run(bodies); err != nil {
			t.Fatal(err)
		}
		return drawAfter
	}
	rolled := run(true)
	straight := run(false)
	if rolled != straight {
		t.Fatalf("post-rollback draw %#x != per-tick draw %#x: PRNG not rewound", rolled, straight)
	}
}

// TestQuantumMaxCyclesVerdict pins livelock detection to the per-tick
// schedule: a pure-tick livelock must yield ErrMaxCycles at the same cycle
// whatever the quantum budget (speculation is capped at MaxCycles).
func TestQuantumMaxCyclesVerdict(t *testing.T) {
	mk := func() []func(*Ctx) {
		spin := func(c *Ctx) {
			for {
				c.TickPure(10)
			}
		}
		return []func(*Ctx){spin, spin}
	}
	verdict := func(spec int) uint64 {
		e := mustEngine(t, Config{
			Topo: topology.MustFromFlat(2, 2), Seed: 1, MaxCycles: 1000,
			Cost: DefaultCostModel(), SpecQuantum: spec,
		})
		cycle, err := e.Run(mk())
		if !errors.Is(err, ErrMaxCycles) {
			t.Fatalf("SpecQuantum=%d: err = %v, want ErrMaxCycles", spec, err)
		}
		return cycle
	}
	base := verdict(0)
	for _, spec := range []int{1, 64} {
		if got := verdict(spec); got != base {
			t.Errorf("SpecQuantum=%d: verdict at cycle %d, want %d", spec, got, base)
		}
	}
}

// TestQuantumEngineReuse checks speculation state is fully reset between
// Runs on one engine: a second Run produces the identical stream, and
// every counter covers its Run, so both Runs report equal totals.
func TestQuantumEngineReuse(t *testing.T) {
	e := mustEngine(t, Config{
		Topo: topology.MustFromFlat(4, 2), Seed: 7,
		Cost: DefaultCostModel(), SpecQuantum: 16,
	})
	var stream []uint64
	verify := watchStates(t, e, func(now uint64) { stream = append(stream, now) }, nil)
	run := func() (string, uint64) {
		stream = stream[:0]
		draws := make([]uint64, 4)
		makespan, err := e.Run(mixedBodies(draws))
		if err != nil {
			t.Fatal(err)
		}
		verify()
		return fmt.Sprint(stream), makespan
	}
	s1, m1 := run()
	c1 := e.Counters()
	s2, m2 := run()
	c2 := e.Counters()
	if s1 != s2 || m1 != m2 {
		t.Fatalf("second Run diverged: makespan %d vs %d", m2, m1)
	}
	if c1.QuantumTicks == 0 || c1 != c2 {
		t.Fatalf("per-Run totals %+v, then %+v: want them equal, with ticks journaled", c1, c2)
	}
}

// allocBodies is a pure/impure workload with no closure state, for the
// allocation guards.
func allocBodies(n int) []func(*Ctx) {
	bodies := make([]func(*Ctx), n)
	for i := range bodies {
		bodies[i] = func(c *Ctx) {
			for k := 0; k < 30; k++ {
				c.TickPure(3)
				c.TickPure(4)
				c.Tick(5)
			}
		}
	}
	return bodies
}

// TestQuantumZeroAlloc verifies the speculation path allocates nothing
// beyond what the per-tick engine allocates: the journal is pre-sized at
// engine construction, so a Run with quanta engaged must cost exactly as
// many allocations as a Run without (the coroutine spawns).
func TestQuantumZeroAlloc(t *testing.T) {
	for _, threads := range []int{8, 128} {
		t.Run(fmt.Sprintf("%dthreads", threads), func(t *testing.T) {
			measure := func(spec int) float64 {
				e := mustEngine(t, Config{
					Topo: topology.MustFromFlat(threads, 2), Seed: 5,
					Cost: DefaultCostModel(), SpecQuantum: spec,
				})
				bodies := allocBodies(threads)
				if _, err := e.Run(bodies); err != nil { // warm-up
					t.Fatal(err)
				}
				// The process's first GC cycle allocates its background
				// workers; make sure it is not one counted here.
				runtime.GC()
				return testing.AllocsPerRun(3, func() {
					if _, err := e.Run(bodies); err != nil {
						t.Fatal(err)
					}
				})
			}
			base := measure(0)
			spec := measure(64)
			if spec > base {
				t.Fatalf("quantum path allocates: %.1f allocs/run with speculation, %.1f without", spec, base)
			}
		})
	}
}

// countdown is a Protocol of n ticks of cost cost each.
type countdown struct{ n, cost uint64 }

func (p *countdown) StepCost() uint64 { return p.cost }
func (p *countdown) Step() bool       { p.n--; return p.n == 0 }

// TestContinuationClosesQuantum: a thread that enters a wait continuation
// or a Delegate with a speculative quantum open closes the quantum with
// the continuation's first tick. Every scheduling step checks the state
// invariants — among them, that a thread suspended while the loop replays
// its journal carries no continuation yet — and the hook stream, wait
// verdicts and makespan must equal the per-tick engine's.
func TestContinuationClosesQuantum(t *testing.T) {
	const key = 7
	type result struct {
		hooks    []uint64
		waits    []uint64
		makespan uint64
		entered  int // continuations entered with a journal open
	}
	run := func(spec int) result {
		e := mustEngine(t, Config{
			Topo: topology.MustFromFlat(3, 3), Seed: 3,
			Cost: DefaultCostModel(), SpecQuantum: spec,
		})
		var word uint64
		e.SetLockWordOps(
			func(int, uint64) uint64 { return word },
			func(_ int, _ uint64, v uint64) { word = v })
		var r result
		verify := watchStates(t, e, func(now uint64) { r.hooks = append(r.hooks, now) }, nil)
		waiter := func(maxSpins int) func(*Ctx) {
			return func(c *Ctx) {
				for round := 0; round < 3; round++ {
					for i := 0; i < 20; i++ {
						c.TickPure(3)
					}
					if c.spec.n > 0 {
						r.entered++
					}
					c.WaitWord(key, maxSpins)
					r.waits = append(r.waits, c.Clock())
					for i := 0; i < 10; i++ {
						c.TickPure(5)
					}
					if c.spec.n > 0 {
						r.entered++
					}
					c.Delegate(&countdown{n: 3, cost: 4})
				}
			}
		}
		holder := func(c *Ctx) {
			for round := 0; round < 3; round++ {
				c.AcquireWord(key, 1)
				c.Tick(90)
				c.Tick(25)
				word = 0
				c.WakeKey(key)
				c.Tick(40)
			}
		}
		makespan, err := e.Run([]func(*Ctx){holder, waiter(-1), waiter(2)})
		if err != nil {
			t.Fatalf("SpecQuantum=%d: %v", spec, err)
		}
		verify()
		r.makespan = makespan
		return r
	}
	ref, got := run(0), run(64)
	if got.entered == 0 {
		t.Fatal("no continuation was entered with a quantum open")
	}
	if !slices.Equal(ref.hooks, got.hooks) || !slices.Equal(ref.waits, got.waits) || ref.makespan != got.makespan {
		t.Fatalf("quantum run diverged: waits %v vs %v, makespan %d vs %d, %d vs %d hooks",
			got.waits, ref.waits, got.makespan, ref.makespan, len(got.hooks), len(ref.hooks))
	}
}
