package htm

import (
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// TestCommittedTxnZeroAllocs is the regression guard for the allocation-
// free fast path: a committed, uncontended transaction must not touch the
// heap at all. The measurement runs inside the engine body (AllocsPerRun
// suspends and resumes the coroutine freely), after one warm-up attempt so
// the thread's reusable buffers are at steady-state capacity.
func TestCommittedTxnZeroAllocs(t *testing.T) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	base := m.AllocLines(4)

	body := func(tx *Tx) {
		for l := 0; l < 4; l++ {
			a := base + mem.Addr(l*mem.LineWords)
			tx.Store(a, tx.Load(a)+1)
		}
		tx.Work(8)
	}
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if st := u.Run(c, body); st != 0 {
			t.Errorf("warm-up attempt aborted: %v", st)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if st := u.Run(c, body); st != 0 {
				t.Errorf("measured attempt aborted: %v", st)
			}
		})
		if allocs != 0 {
			t.Errorf("committed uncontended transaction allocates %.1f times per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBufReuseAcrossAttempts: the write buffer grows once for a large
// write set, then later attempts — including larger-footprint retries of
// the same shape — reuse the grown table without allocating.
func TestWriteBufReuseAcrossAttempts(t *testing.T) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 16)
	u := New(m, cfg, Config{ReadSetLines: 4096, WriteSetLines: 512, SpuriousProb: 0})
	base := m.AllocLines(64)

	// 256 distinct words across 32 lines: well past wbInitSlots, so the
	// first attempt grows the table; the rest must not.
	wide := func(tx *Tx) {
		for l := 0; l < 32; l++ {
			for w := 0; w < 8; w++ {
				tx.Store(base+mem.Addr(l*mem.LineWords+w), uint64(l*8+w))
			}
		}
	}
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if st := u.Run(c, wide); st != 0 {
			t.Errorf("warm-up attempt aborted: %v", st)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if st := u.Run(c, wide); st != 0 {
				t.Errorf("measured attempt aborted: %v", st)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state wide transaction allocates %.1f times per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	// The committed values must all have landed.
	for l := 0; l < 32; l++ {
		for w := 0; w < 8; w++ {
			if got := m.Peek(base + mem.Addr(l*mem.LineWords+w)); got != uint64(l*8+w) {
				t.Fatalf("word (%d,%d) = %d, want %d", l, w, got, l*8+w)
			}
		}
	}
}

// TestCommittedTxnZeroAllocs128Threads reruns the committed-transaction
// guard on a 4-socket, 128-thread machine with the transaction on the
// highest thread id: reader-set words, core tables and counters must
// stay allocation-free past the old 64-thread ceiling.
func TestCommittedTxnZeroAllocs128Threads(t *testing.T) {
	topo := topology.Multi(4, 16, 2)
	cfg := machine.Config{Topo: topo, Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	base := m.AllocLines(4)

	body := func(tx *Tx) {
		for l := 0; l < 4; l++ {
			a := base + mem.Addr(l*mem.LineWords)
			tx.Store(a, tx.Load(a)+1)
		}
		tx.Work(8)
	}
	bodies := make([]func(*machine.Ctx), topo.Threads())
	bodies[topo.Threads()-1] = func(c *machine.Ctx) {
		if st := u.Run(c, body); st != 0 {
			t.Errorf("warm-up attempt aborted: %v", st)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if st := u.Run(c, body); st != 0 {
				t.Errorf("measured attempt aborted: %v", st)
			}
		})
		if allocs != 0 {
			t.Errorf("128-thread committed transaction allocates %.1f times per run, want 0", allocs)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitAbortZeroAllocs guards the abort unwind path: tx.Abort
// panics with the thread's pre-boxed signal and Run recovers it, so an
// explicitly aborted transaction must be as allocation-free as a commit.
func TestExplicitAbortZeroAllocs(t *testing.T) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	base := m.AllocLines(2)

	body := func(tx *Tx) {
		tx.Store(base, tx.Load(base)+1)
		tx.Work(4)
		tx.Abort(0x42)
	}
	explicit := 0
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if st := u.Run(c, body); st.Cause() != CauseExplicit {
			t.Errorf("warm-up status = %v, want explicit abort", st)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if st := u.Run(c, body); st.Cause() != CauseExplicit {
				t.Errorf("measured status = %v, want explicit abort", st)
			} else {
				explicit++
			}
		})
		if allocs != 0 {
			t.Errorf("explicit abort allocates %.1f times per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if explicit < 100 {
		t.Errorf("explicit aborts = %d, want >= 100", explicit)
	}
}

// TestConflictAbortZeroAllocs guards the doomed-transaction unwind with
// no doom hook installed (tracing disabled): the doom is injected through
// the same Doomer entry point the memory's conflict registry uses, the
// victim observes it at its next step and aborts — all without touching
// the heap.
func TestConflictAbortZeroAllocs(t *testing.T) {
	cfg := machine.Config{Topo: topology.Flat(2), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	base := m.AllocLines(1)
	ln := mem.LineOf(base)

	body := func(tx *Tx) {
		tx.Store(base, 1)
		// A store by hardware thread 1 reaches the registry and dooms this
		// writer (requester wins); the next step notices and unwinds.
		u.DoomWriter(0, 1, ln)
		tx.Work(8)
	}
	conflicts := 0
	bodies := make([]func(*machine.Ctx), 2)
	bodies[1] = func(c *machine.Ctx) {} // thread 1 exists only as the doom requester id
	bodies[0] = func(c *machine.Ctx) {
		if st := u.Run(c, body); st.Cause() != CauseConflict {
			t.Errorf("warm-up status = %v, want conflict", st)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if st := u.Run(c, body); st.Cause() != CauseConflict {
				t.Errorf("measured status = %v, want conflict", st)
			} else {
				conflicts++
			}
		})
		if allocs != 0 {
			t.Errorf("conflict abort allocates %.1f times per run, want 0", allocs)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if conflicts < 100 {
		t.Errorf("conflict aborts = %d, want >= 100", conflicts)
	}
}
