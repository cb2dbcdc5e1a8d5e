package machine

import (
	"fmt"
	"testing"

	"seer/internal/topology"
)

// BenchmarkTick is n threads ticking one cycle at a time in lockstep, so
// every tick reaches its thread's batch horizon and one op is one resume.
// switches/op is the coroutine switches per op, 2 × (Resumes −
// HostResumes) / ops: every resume but the host's costs two, so lockstep
// reads 2(n−1)/n — 1.0 at 2 threads, 1.75 at 8 and about 2.0 at 128.
func BenchmarkTick(b *testing.B) {
	for _, n := range []int{2, 8, 128} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			eng, err := New(Config{Topo: topology.Flat(n), Seed: 1, Cost: DefaultCostModel()})
			if err != nil {
				b.Fatal(err)
			}
			per := b.N/n + 1
			bodies := make([]func(*Ctx), n)
			for i := range bodies {
				bodies[i] = func(c *Ctx) {
					for range per {
						c.Tick(1)
					}
				}
			}
			b.ResetTimer()
			if _, err := eng.Run(bodies); err != nil {
				b.Fatal(err)
			}
			c := eng.Counters()
			b.ReportMetric(2*float64(c.Resumes-c.HostResumes)/float64(per*n), "switches/op")
		})
	}
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
