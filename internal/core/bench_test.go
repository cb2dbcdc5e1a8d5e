package core

import (
	"testing"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
)

// benchSeer builds a Seer instance with numTx blocks on an 8-thread
// machine for inference micro-benchmarks.
func benchSeer(b *testing.B, numTx int) (*machine.Engine, *Seer) {
	b.Helper()
	cfg := machine.DefaultConfig()
	eng, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := mem.New(1 << 14)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 64, WriteSetLines: 16})
	spinlock.Wire(eng, m)
	rng := machine.NewRand(5)
	opts := DefaultOptions()
	opts.HillClimb = false
	return eng, New(numTx, cfg, m, u, opts, &rng)
}

// BenchmarkScanActive measures the per-event monitoring cost (Algorithm 3)
// with a full active-transactions list — the worst case the epoch-stamped
// dedup has to handle.
func BenchmarkScanActive(b *testing.B) {
	eng, s := benchSeer(b, 8)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		// Populate every other thread's slot so each scan dedups a full list.
		for hw := 1; hw < 8; hw++ {
			s.run.activeTxs[hw] = int32(hw % s.numTx)
			s.run.live.Add(hw)
		}
		s.Start(ts, 0, 0)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			s.scanActive(ts, 0, n%4 == 0)
		}
	}}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkUpdateScheme measures one scheme recomputation (Algorithm 5)
// over dense statistics at steady state, where all scratch is reused.
func BenchmarkUpdateScheme(b *testing.B) {
	eng, s := benchSeer(b, 16)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		seed := func() {
			for x := 0; x < s.numTx; x++ {
				for y := 0; y < s.numTx; y++ {
					if (x+y)%3 == 0 {
						ts.Mats().AddAbort(x, y)
					} else {
						ts.Mats().AddCommit(x, y)
					}
					ts.Mats().IncExec(x)
				}
			}
		}
		seed()
		s.UpdateScheme(c) // warm-up sizes all rows
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			seed()
			s.UpdateScheme(c)
		}
	}}); err != nil {
		b.Fatal(err)
	}
}
