package core

import (
	"testing"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/topology"
)

// Allocation guards for the inference hot path (the counterpart of the
// HTM-layer guards in internal/htm/alloc_test.go). The measurements run
// inside the engine body after warm-up calls so every reusable buffer is
// at steady-state capacity.

// TestSeerCommitPathZeroAllocs: the per-event monitoring — announcement,
// commit/abort registration with the activeTxs scan, release — must not
// touch the heap in steady state.
func TestSeerCommitPathZeroAllocs(t *testing.T) {
	eng, _, _, s := env(t, 2, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		event := func(txID int) {
			s.Start(ts, txID, 0)
			s.RegisterCommit(ts, txID)
			s.RegisterAbort(ts, txID)
			s.ReleaseLocks(ts)
			s.Finish(ts)
		}
		event(0) // warm-up
		allocs := testing.AllocsPerRun(100, func() {
			event(1)
			event(2)
		})
		if allocs != 0 {
			t.Errorf("steady-state Seer event path allocates %.1f per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSchemeZeroAllocs: after the first update has sized the merged
// matrices, the pair bitset and the scheme rows, recomputing the locking
// scheme must be allocation-free — including updates that change which
// pairs are serialized, as long as no row outgrows its high-water mark.
func TestUpdateSchemeZeroAllocs(t *testing.T) {
	eng, _, _, s := env(t, 2, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		// Warm-up: a dense conflict pattern sizes every row to its maximum.
		for x := 0; x < s.NumTx(); x++ {
			for y := 0; y < s.NumTx(); y++ {
				for i := 0; i < 50; i++ {
					ts.Mats().AddAbort(x, y)
					ts.Mats().IncExec(x)
				}
			}
		}
		s.UpdateScheme(c)
		if s.SchemePairs() == 0 {
			t.Fatal("warm-up scheme is empty; the guard would measure nothing")
		}
		baseline := s.SchemeReuseHits
		allocs := testing.AllocsPerRun(100, func() {
			// Fresh deltas each round keep the drain path non-trivial.
			ts.Mats().AddAbort(0, 1)
			ts.Mats().IncExec(0)
			s.UpdateScheme(c)
		})
		if allocs != 0 {
			t.Errorf("steady-state UpdateScheme allocates %.1f per run, want 0", allocs)
		}
		if s.SchemeReuseHits == baseline {
			t.Errorf("SchemeReuseHits stayed at %d across reusing updates", baseline)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireReleaseTxLocksZeroAllocs: taking and releasing a non-empty
// scheme row reuses the held-locks and row-snapshot capacity.
func TestAcquireReleaseTxLocksZeroAllocs(t *testing.T) {
	opts := staticOptions()
	opts.HTMLockAcq = false // sequential acquisition: no HTM warm-up interplay
	eng, _, _, s := env(t, 2, opts)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for x := 0; x < s.NumTx(); x++ {
			for y := 0; y < s.NumTx(); y++ {
				for i := 0; i < 50; i++ {
					ts.Mats().AddAbort(x, y)
					ts.Mats().IncExec(x)
				}
			}
		}
		s.UpdateScheme(c)
		cycle := func() {
			s.Start(ts, 0, 0)
			s.AcquireLocks(ts, 0, 0, 1)
			s.ReleaseLocks(ts)
			s.Finish(ts)
		}
		cycle() // warm-up
		if s.LockAcqEvents == 0 {
			t.Fatal("no lock acquisitions; the guard would measure nothing")
		}
		// LockAcqSamples is unbounded by design (it feeds the §5.2 median);
		// presize it so the append inside the loop does not count.
		s.LockAcqSamples = make([]int, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() { cycle() })
		if allocs != 0 {
			t.Errorf("steady-state lock acquire/release allocates %.1f per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestSeerPathsZeroAllocs128Threads reruns every steady-state guard
// above on a 4-socket, 128-thread machine, with the measured body on
// the highest thread id — the shape where the multi-word bitsets
// (activeTxs scans, lock rows, pair sets) would first allocate if they
// regressed to anything per-thread-count on the hot path.
func TestSeerPathsZeroAllocs128Threads(t *testing.T) {
	topo := topology.Multi(4, 16, 2)
	opts := staticOptions()
	opts.HTMLockAcq = false
	cfg := machine.Config{Topo: topo, Seed: 11, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 64, WriteSetLines: 16})
	spinlock.Wire(eng, m)
	rng := machine.NewRand(5)
	s := New(3, cfg, m, u, opts, &rng)

	bodies := make([]func(*machine.Ctx), topo.Threads())
	bodies[topo.Threads()-1] = func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for x := 0; x < s.NumTx(); x++ {
			for y := 0; y < s.NumTx(); y++ {
				for i := 0; i < 50; i++ {
					ts.Mats().AddAbort(x, y)
					ts.Mats().IncExec(x)
				}
			}
		}
		s.UpdateScheme(c)
		if s.SchemePairs() == 0 {
			t.Error("warm-up scheme is empty; the guard would measure nothing")
			return
		}
		cycle := func() {
			s.Start(ts, 0, 0)
			s.AcquireLocks(ts, 0, 0, 1)
			s.RegisterCommit(ts, 0)
			s.ReleaseLocks(ts)
			s.Finish(ts)
			ts.Mats().AddAbort(0, 1)
			ts.Mats().IncExec(0)
			s.UpdateScheme(c)
		}
		cycle() // warm-up
		s.LockAcqSamples = make([]int, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() { cycle() })
		if allocs != 0 {
			t.Errorf("128-thread steady-state Seer path allocates %.1f per run, want 0", allocs)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
}
