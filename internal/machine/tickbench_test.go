package machine

import (
	"fmt"
	"testing"

	"seer/internal/topology"
)

func BenchmarkTick(b *testing.B) {
	cfg := DefaultConfig()
	eng, _ := New(cfg)
	bodies := make([]func(*Ctx), 8)
	per := b.N/8 + 1
	for i := range bodies {
		bodies[i] = func(c *Ctx) {
			for n := 0; n < per; n++ {
				c.Tick(1)
			}
		}
	}
	b.ResetTimer()
	eng.Run(bodies)
}

// BenchmarkSGLHerd is one lock handed round n threads, all of them
// delegated acquirers, wired like the runtime's single global lock
// (lock-word ops): each acquires, holds the lock for 50 cycles,
// releases it and works 10 cycles before its next acquire, so every
// release finds the other n-1 parked. One op is one handoff; the
// steps/op metric is the queue traffic the herd still costs and
// settled/op the losers settled in closed form instead.
func BenchmarkSGLHerd(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("waiters=%d", n), func(b *testing.B) {
			eng, err := New(Config{Topo: topology.Flat(n), Seed: 1, Cost: DefaultCostModel()})
			if err != nil {
				b.Fatal(err)
			}
			const key = 7
			var word uint64
			eng.SetLockWordOps(
				func(int, uint64) uint64 { return word },
				func(_ int, _ uint64, v uint64) { word = v })
			per := b.N/n + 1
			bodies := make([]func(*Ctx), n)
			for i := range bodies {
				bodies[i] = func(c *Ctx) {
					for range per {
						c.AcquireWord(key, uint64(c.ID())+1)
						c.Tick(50)
						c.Tick(c.Cost().LockOp)
						word = 0
						c.WakeKey(key)
						c.Tick(10)
					}
				}
			}
			b.ResetTimer()
			if _, err := eng.Run(bodies); err != nil {
				b.Fatal(err)
			}
			ops := float64(per * n)
			b.ReportMetric(float64(eng.Counters().Steps)/ops, "steps/op")
			b.ReportMetric(float64(eng.Counters().Settled)/ops, "settled/op")
		})
	}
}
