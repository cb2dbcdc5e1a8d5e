package htm

import (
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// TestSWCommitZeroAllocs is the software-commit-path analogue of
// TestCommittedTxnZeroAllocs: a committed STM transaction reuses the
// same per-thread write buffer and line sets as the hardware path, so
// at steady state it must not touch the heap either.
func TestSWCommitZeroAllocs(t *testing.T) {
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
	commits := 0
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if st := u.RunSW(c, body); st != 0 {
			t.Errorf("warm-up attempt aborted: %v", st)
		} else {
			commits++
		}
		allocs := testing.AllocsPerRun(100, func() {
			if st := u.RunSW(c, body); st != 0 {
				t.Errorf("measured attempt aborted: %v", st)
			} else {
				commits++
			}
		})
		if allocs != 0 {
			t.Errorf("committed software transaction allocates %.1f times per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if commits < 101 {
		t.Errorf("software commits = %d, want >= 101", commits)
	}
}

// TestSWCommitPathMatchesHW is the differential check of the software
// commit protocol: the same deterministic schedule of read-modify-write
// transactions, run once through the hardware path and once through the
// software path on identically initialized memories, must produce
// byte-identical final memory states.
func TestSWCommitPathMatchesHW(t *testing.T) {
	const (
		lines = 8
		iters = 50
		words = 1 << 10
	)
	run := func(sw bool) *mem.Memory {
		cfg := machine.Config{Topo: topology.Flat(2), Seed: 7, Cost: machine.DefaultCostModel()}
		eng, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New(words)
		u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 64, SpuriousProb: 0})
		regions := [2]mem.Addr{m.AllocLines(lines), m.AllocLines(lines)}
		for r := 0; r < 2; r++ {
			for l := 0; l < lines; l++ {
				m.Poke(regions[r]+mem.Addr(l*mem.LineWords), uint64(r*100+l))
			}
		}
		bodies := make([]func(*machine.Ctx), 2)
		for id := 0; id < 2; id++ {
			base := regions[id]
			bodies[id] = func(c *machine.Ctx) {
				body := func(tx *Tx) {
					// A chain of dependent read-modify-writes: each line's
					// new value folds in the previous line's, so publish
					// order and read-your-own-writes behavior both matter.
					var carry uint64
					for l := 0; l < lines; l++ {
						a := base + mem.Addr(l*mem.LineWords)
						v := tx.Load(a) + carry + 1
						tx.Store(a, v)
						carry = v % 7
					}
				}
				for n := 0; n < iters; n++ {
					var st Status
					if sw {
						st = u.RunSW(c, body)
					} else {
						st = u.Run(c, body)
					}
					if st != 0 {
						t.Errorf("attempt aborted: %v", st)
					}
					c.Tick(5)
				}
			}
		}
		if _, err := eng.Run(bodies); err != nil {
			t.Fatal(err)
		}
		return m
	}
	hw, sw := run(false), run(true)
	for a := mem.Addr(0); a < words; a++ {
		if hv, sv := hw.Peek(a), sw.Peek(a); hv != sv {
			t.Fatalf("word %d: HW path %d, SW path %d", a, hv, sv)
		}
	}
}

// TestSWNoCapacityLimit: the software path has no L1 footprint model, so
// a write set far beyond the hardware budget commits in SW mode while
// the same body capacity-aborts in HW mode.
func TestSWNoCapacityLimit(t *testing.T) {
	const lines = 96
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 1, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 13)
	u := New(m, cfg, Config{ReadSetLines: 512, WriteSetLines: 64, SpuriousProb: 0})
	base := m.AllocLines(lines)

	body := func(tx *Tx) {
		for l := 0; l < lines; l++ {
			a := base + mem.Addr(l*mem.LineWords)
			tx.Store(a, tx.Load(a)+1)
		}
	}
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if st := u.Run(c, body); !st.Capacity() {
			t.Errorf("hardware status = %v, want capacity abort", st)
		}
		if st := u.RunSW(c, body); st != 0 {
			t.Errorf("software status = %v, want commit", st)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lines; l++ {
		if got := m.Peek(base + mem.Addr(l*mem.LineWords)); got != 1 {
			t.Fatalf("line %d = %d, want exactly 1 (HW attempt must not have published)", l, got)
		}
	}
}

// TestSWConflictDetection: software transactions register in the same
// conflict registry as hardware ones, so a cross-mode conflict dooms the
// software reader exactly like a hardware reader (strong isolation holds
// across modes).
func TestSWConflictDetection(t *testing.T) {
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
		// A write by hardware thread 1 reaches the registry and dooms
		// this software writer (requester wins); the next step unwinds.
		u.DoomWriter(0, 1, ln)
		tx.Work(8)
	}
	bodies := make([]func(*machine.Ctx), 2)
	bodies[1] = func(c *machine.Ctx) {} // exists only as the doom requester id
	bodies[0] = func(c *machine.Ctx) {
		if st := u.RunSW(c, body); st.Cause() != CauseConflict {
			t.Errorf("software status = %v, want conflict abort", st)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(base); got != 0 {
		t.Fatalf("aborted software store published: word = %d, want 0", got)
	}
}
