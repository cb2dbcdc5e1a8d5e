package htm

import (
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// BenchmarkUncontendedTxn measures simulator throughput for small
// conflict-free transactions (the common fast path).
func BenchmarkUncontendedTxn(b *testing.B) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 12)
	u := New(m, cfg, DefaultConfig())
	a := m.AllocLines(1)
	b.ResetTimer()
	eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		for i := 0; i < b.N; i++ {
			u.Run(c, func(tx *Tx) {
				tx.Store(a, tx.Load(a)+1)
			})
		}
	}})
}

// BenchmarkConflictingTxns measures the abort/retry path under two
// threads hammering one line.
func BenchmarkConflictingTxns(b *testing.B) {
	cfg := machine.Config{Topo: topology.Flat(2), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 12)
	u := New(m, cfg, DefaultConfig())
	a := m.AllocLines(1)
	per := b.N/2 + 1
	body := func(c *machine.Ctx) {
		for i := 0; i < per; i++ {
			for {
				if u.Run(c, func(tx *Tx) {
					v := tx.Load(a)
					tx.Work(20)
					tx.Store(a, v+1)
				}) == 0 {
					break
				}
			}
		}
	}
	b.ResetTimer()
	eng.Run([]func(*machine.Ctx){body, body})
}

// BenchmarkWriteHeavyTxn measures store-dominated transactions: every
// access is a buffered write, so this isolates the write-buffer put path
// and the commit apply loop.
func BenchmarkWriteHeavyTxn(b *testing.B) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 12)
	u := New(m, cfg, DefaultConfig())
	base := m.AllocLines(2)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		for i := 0; i < b.N; i++ {
			u.Run(c, func(tx *Tx) {
				for w := 0; w < 16; w++ {
					tx.Store(base+mem.Addr(w), uint64(i))
				}
			})
		}
	}})
}

// BenchmarkLargeWriteSet measures per-access cost with a wide footprint.
func BenchmarkLargeWriteSet(b *testing.B) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 16)
	u := New(m, cfg, Config{ReadSetLines: 4096, WriteSetLines: 512})
	base := m.AllocLines(64)
	b.ResetTimer()
	eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		for i := 0; i < b.N; i++ {
			u.Run(c, func(tx *Tx) {
				for l := 0; l < 32; l++ {
					tx.Store(base+mem.Addr(l*mem.LineWords), uint64(i))
				}
			})
		}
	}})
}

// BenchmarkSubscribedAttempt is the attempt prologue's layer number: 128
// hardware threads on a 4s16c2t machine retry RTM-style attempts,
// subscribed to a fall-back lock word that stays held, so every attempt
// aborts at its subscription load, in the prologue the engine runs. It
// reports ns and coroutine resumes per attempt.
func BenchmarkSubscribedAttempt(b *testing.B) {
	cfg := machine.Config{Topo: topology.Multi(4, 16, 2), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 12)
	u := New(m, cfg, DefaultConfig())
	lock := m.AllocLines(1)
	m.DirectStore(0, lock, 1)
	n := cfg.Topo.Threads()
	per := b.N/n + 1
	body := func(mem.Access) { panic("benchmark: the held lock word let an attempt run its body") }
	bodies := make([]func(*machine.Ctx), n)
	for i := range bodies {
		bodies[i] = func(c *machine.Ctx) {
			for k := 0; k < per; k++ {
				if u.RunSubscribed(c, false, lock, 0xFF, body) == 0 {
					panic("benchmark: an attempt committed under a held lock word")
				}
			}
		}
	}
	before := eng.Counters()
	b.ResetTimer()
	if _, err := eng.Run(bodies); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	attempts := float64(per * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/attempts, "ns/attempt")
	b.ReportMetric(float64(eng.Counters().Resumes-before.Resumes)/attempts, "resumes/attempt")
}
