package machine

import (
	"fmt"
	"slices"
	"testing"

	"seer/internal/topology"
)

// impureTicks are the three ways a body takes an impure tick: Tick, its
// two halves, and the reference both must equal, Tick's body before it was
// split.
var impureTicks = map[string]func(c *Ctx, cost uint64){
	"Tick": (*Ctx).Tick,
	"Advance/Yield": func(c *Ctx, cost uint64) {
		if c.Advance(cost) {
			c.Yield()
		}
	},
	"reference": func(c *Ctx, cost uint64) {
		c.clock += cost
		if c.clock < c.batchLimit {
			c.eng.observe(c.clock)
			return
		}
		c.suspend()
	},
}

// tickBodies is one body per cost row: each thread takes the row's ticks
// in order, every third one pure (so quanta open and close around the
// rest), and the rest through tick. check, when set, runs after every
// impure tick returns.
func tickBodies(costs [][]uint64, tick func(*Ctx, uint64), check func(*Ctx)) []func(*Ctx) {
	bodies := make([]func(*Ctx), len(costs))
	for i, row := range costs {
		bodies[i] = func(c *Ctx) {
			for j, k := range row {
				if j%3 == 2 {
					c.TickPure(k)
					continue
				}
				tick(c, k)
				if check != nil {
					check(c)
				}
			}
		}
	}
	return bodies
}

// randomCosts draws n rows of m tick costs in [0, 12).
func randomCosts(seed int64, n, m int) [][]uint64 {
	r := NewRand(uint64(seed))
	costs := make([][]uint64, n)
	for i := range costs {
		costs[i] = make([]uint64, m)
		for j := range costs[i] {
			costs[i][j] = uint64(r.Intn(12))
		}
	}
	return costs
}

// TestAdvanceYieldIsTick: Advance followed by Yield at the horizon is
// Tick, and both are the unsplit Tick. Under random tick costs,
// speculative quanta and a tick hook with random deadlines, all three give
// the same hook stream, final clocks, makespan and engine counters
// (quantum totals included).
func TestAdvanceYieldIsTick(t *testing.T) {
	type outcome struct {
		hook     []uint64
		clocks   []uint64
		makespan uint64
		count    Counters
	}
	run := func(n int, seed int64, tick func(*Ctx, uint64)) outcome {
		e := mustEngine(t, Config{Topo: topology.Flat(n), Seed: seed, Cost: DefaultCostModel(), SpecQuantum: 8})
		var o outcome
		deadlines := NewRand(uint64(seed) + 1)
		e.SetTickHook(func(now uint64) uint64 {
			o.hook = append(o.hook, now)
			return now + uint64(deadlines.Intn(16))
		})
		var err error
		if o.makespan, err = e.Run(tickBodies(randomCosts(seed, n, 200), tick, nil)); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			o.clocks = append(o.clocks, e.Thread(i).Clock())
		}
		o.count = e.Counters()
		return o
	}
	for _, n := range []int{1, 2, 8, 33} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", n, seed), func(t *testing.T) {
				ref := run(n, seed, impureTicks["reference"])
				if len(ref.hook) == 0 {
					t.Fatal("the hook never fired")
				}
				for _, name := range []string{"Tick", "Advance/Yield"} {
					got := run(n, seed, impureTicks[name])
					if !slices.Equal(got.hook, ref.hook) {
						t.Fatalf("%s: hook called at %d ticks, the reference at %d", name, len(got.hook), len(ref.hook))
					}
					if !slices.Equal(got.clocks, ref.clocks) || got.makespan != ref.makespan {
						t.Fatalf("%s: clocks %v makespan %d, the reference %v and %d",
							name, got.clocks, got.makespan, ref.clocks, ref.makespan)
					}
					if got.count != ref.count {
						t.Fatalf("%s: counters %+v, the reference %+v", name, got.count, ref.count)
					}
				}
			})
		}
	}
}

// TestImpureTickClosesJournal: once Tick, or Advance and then Yield at the
// horizon, returns, the thread has no speculative journal open. This is
// why htm's Tx.Load may read its word without Peek's speculation barrier.
func TestImpureTickClosesJournal(t *testing.T) {
	for _, name := range []string{"Tick", "Advance/Yield"} {
		e := mustEngine(t, Config{Topo: topology.Flat(8), Seed: 3, Cost: DefaultCostModel(), SpecQuantum: 8})
		open := 0
		check := func(c *Ctx) {
			if c.spec.n != 0 {
				open++
			}
		}
		if _, err := e.Run(tickBodies(randomCosts(3, 8, 300), impureTicks[name], check)); err != nil {
			t.Fatal(err)
		}
		if e.Counters().QuantumGrants == 0 {
			t.Fatalf("%s: no quantum opened, so nothing was checked", name)
		}
		if open != 0 {
			t.Fatalf("%s: %d impure ticks returned with a journal open", name, open)
		}
	}
}
