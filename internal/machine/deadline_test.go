package machine

import (
	"slices"
	"testing"

	"seer/internal/topology"
)

// TestTickHookDeadline: a hook is called at exactly the ticks its
// deadlines select. On a park, an acquire and a quantum scenario, each run
// twice on one engine, a hook returning now+P sees the every-tick stream
// filtered by the same rule, with the deadline back at cycle 0 on the
// second run.
func TestTickHookDeadline(t *testing.T) {
	scenarios := []struct {
		name   string
		engine func() *Engine
		bodies func() []func(*Ctx)
	}{{
		name:   "park",
		engine: func() *Engine { return parkEngine(t, 4) },
		bodies: func() []func(*Ctx) {
			flag := false
			waiter := func(c *Ctx) { parkUntil(c, 1, func() bool { return flag }) }
			return []func(*Ctx){waiter, waiter, waiter, func(c *Ctx) {
				c.Tick(997)
				flag = true
				c.WakeKey(1)
			}}
		},
	}, {
		name: "acquire",
		engine: func() *Engine {
			var word uint64
			e := parkEngine(t, 8)
			e.SetLockWordOps(
				func(int, uint64) uint64 { return word },
				func(_ int, _ uint64, v uint64) { word = v })
			return e
		},
		bodies: func() []func(*Ctx) {
			bodies := make([]func(*Ctx), 8)
			for i := range bodies {
				bodies[i] = func(c *Ctx) {
					for r := 0; r < 3; r++ {
						c.Tick(uint64(1 + 5*i))
						c.AcquireWord(faultKey, uint64(i)+1)
						c.Tick(uint64(10 * i))
						c.Tick(taCAS)
						c.eng.lockStore(i, faultKey, 0)
						c.WakeKey(faultKey)
					}
				}
			}
			return bodies
		},
	}, {
		name: "quantum",
		engine: func() *Engine {
			return mustEngine(t, Config{Topo: topology.MustFromFlat(4, 2), Seed: 7, Cost: DefaultCostModel(), SpecQuantum: 8})
		},
		bodies: func() []func(*Ctx) { return mixedBodies(make([]uint64, 4)) },
	}}
	for _, sc := range scenarios {
		// streams runs the scenario twice on one engine whose hook records
		// each run's calls and returns next(now).
		streams := func(next func(now uint64) uint64) (runs [2][]uint64) {
			e := sc.engine()
			run := 0
			e.SetTickHook(func(now uint64) uint64 {
				runs[run] = append(runs[run], now)
				return next(now)
			})
			for ; run < 2; run++ {
				if _, err := e.Run(sc.bodies()); err != nil {
					t.Fatalf("%s: %v", sc.name, err)
				}
			}
			return runs
		}
		every := streams(func(uint64) uint64 { return 0 })
		for _, p := range []uint64{1, 7, 4096} {
			got := streams(func(now uint64) uint64 { return now + p })
			for run, all := range every {
				var want []uint64
				deadline := uint64(0)
				for _, now := range all {
					if now >= deadline {
						want, deadline = append(want, now), now+p
					}
				}
				if !slices.Equal(got[run], want) {
					t.Fatalf("%s P=%d run %d: hook called at %d ticks, the filtered stream has %d\ngot  %v\nwant %v",
						sc.name, p, run, len(got[run]), len(want), got[run], want)
				}
			}
		}
		if len(every[0]) == 0 || !slices.Equal(every[0], every[1]) {
			t.Fatalf("%s: the every-tick streams of the two runs differ or are empty", sc.name)
		}
	}
}
