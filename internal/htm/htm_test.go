package htm

import (
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// env builds a 1-or-more-thread machine with memory and an HTM unit.
func env(t *testing.T, hwThreads, physCores int) (*machine.Engine, *mem.Memory, *Unit) {
	t.Helper()
	cfg := machine.Config{
		Topo: topology.MustFromFlat(hwThreads, physCores),
		Seed: 42,
		Cost: machine.DefaultCostModel(),
	}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	return eng, m, u
}

// mode is one exported entry point of the attempt runner; the
// mode-independent tests run once per mode.
type mode struct {
	name string
	run  func(*Unit, *machine.Ctx, func(*Tx)) Status
}

var modes = []mode{
	{"HW", (*Unit).Run},
	{"SW", (*Unit).RunSW},
}

func forEachMode(t *testing.T, f func(t *testing.T, md mode)) {
	for _, md := range modes {
		t.Run(md.name, func(t *testing.T) { f(t, md) })
	}
}

func TestCommitAppliesWrites(t *testing.T) {
	forEachMode(t, func(t *testing.T, md mode) {
		eng, m, u := env(t, 1, 1)
		a := m.AllocLines(1)
		if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			status := md.run(u, c, func(tx *Tx) {
				tx.Store(a, 7)
				if tx.Load(a) != 7 {
					t.Errorf("transaction does not see its own write")
				}
			})
			if status != 0 {
				t.Errorf("status = %v, want commit", status)
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if m.Peek(a) != 7 {
			t.Fatalf("committed value not applied: %d", m.Peek(a))
		}
	})
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	forEachMode(t, func(t *testing.T, md mode) {
		eng, m, u := env(t, 1, 1)
		a := m.AllocLines(1)
		m.Poke(a, 1)
		if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			status := md.run(u, c, func(tx *Tx) {
				tx.Store(a, 99)
				tx.Abort(0x42)
			})
			if status.Cause() != CauseExplicit || status.ExplicitCode() != 0x42 {
				t.Errorf("status = %v, want explicit(0x42)", status)
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if m.Peek(a) != 1 {
			t.Fatalf("aborted write leaked: %d", m.Peek(a))
		}
	})
}

func TestWriteCapacityAbort(t *testing.T) {
	eng, m, u := env(t, 1, 1)
	base := m.AllocLines(32)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		status := u.Run(c, func(tx *Tx) {
			for i := 0; i < 32; i++ { // write cap is 16 lines
				tx.Store(base+mem.Addr(i*mem.LineWords), 1)
			}
		})
		if status.Cause() != CauseCapacity {
			t.Errorf("status = %v, want capacity", status)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	// All registrations must be cleaned up after the abort.
	for i := 0; i < 32; i++ {
		ln := mem.LineOf(base + mem.Addr(i*mem.LineWords))
		if m.LineWriter(ln) != -1 || !m.LineReaders(ln).Empty() {
			t.Fatalf("line %d not unregistered after abort", ln)
		}
	}
}

func TestReadCapacityAbort(t *testing.T) {
	eng, m, u := env(t, 1, 1)
	base := m.AllocLines(80)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		status := u.Run(c, func(tx *Tx) {
			for i := 0; i < 80; i++ { // read cap is 64 lines
				tx.Load(base + mem.Addr(i*mem.LineWords))
			}
		})
		if !status.Capacity() {
			t.Errorf("status = %v, want capacity", status)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestSiblingHalvesCapacity: with a hyperthread sibling inside a
// transaction, the effective write budget halves.
func TestSiblingHalvesCapacity(t *testing.T) {
	eng, m, u := env(t, 2, 1) // two hyperthreads on one physical core
	base := m.AllocLines(64)
	sibBase := m.AllocLines(4)
	var status0 Status
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			// 12 written lines: under the solo cap (16), over the
			// shared cap (8).
			status0 = u.Run(c, func(tx *Tx) {
				for i := 0; i < 12; i++ {
					tx.Store(base+mem.Addr(i*mem.LineWords), 1)
					tx.Work(20)
				}
			})
		},
		func(c *machine.Ctx) {
			// Sibling stays inside a transaction the whole time.
			u.Run(c, func(tx *Tx) {
				for i := 0; i < 3; i++ {
					tx.Store(sibBase+mem.Addr(i), 1)
					tx.Work(120)
				}
			})
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if !status0.Capacity() {
		t.Fatalf("status0 = %v, want capacity (shared L1 must halve the budget)", status0)
	}
}

// TestConflictRequesterWins: a second writer dooms the first; the doomed
// transaction aborts with a conflict status at its next step. The victim
// and the requester each run in either mode: conflicts are detected in the
// shared registry, so every pairing behaves alike.
func TestConflictRequesterWins(t *testing.T) {
	forEachMode(t, func(t *testing.T, victim mode) {
		forEachMode(t, func(t *testing.T, requester mode) {
			eng, m, u := env(t, 2, 2)
			a := m.AllocLines(1)
			var status0, status1 Status
			bodies := []func(*machine.Ctx){
				func(c *machine.Ctx) {
					status0 = victim.run(u, c, func(tx *Tx) {
						tx.Store(a, 1) // registers first (thread 0 starts first)
						tx.Work(500)   // long vulnerable window
					})
				},
				func(c *machine.Ctx) {
					c.Tick(100) // start later
					status1 = requester.run(u, c, func(tx *Tx) {
						tx.Store(a, 2) // dooms thread 0 (requester wins)
					})
				},
			}
			if _, err := eng.Run(bodies); err != nil {
				t.Fatal(err)
			}
			if !status0.Conflict() {
				t.Fatalf("status0 = %v, want conflict", status0)
			}
			if status1 != 0 {
				t.Fatalf("status1 = %v, want commit", status1)
			}
			if m.Peek(a) != 2 {
				t.Fatalf("memory = %d, want the winner's value 2", m.Peek(a))
			}
			if got := u.LastConflictor(0); got != 1 {
				t.Fatalf("LastConflictor(0) = %d, want 1", got)
			}
		})
	})
}

// TestReadersDoNotConflict: concurrent readers of one line all commit.
func TestReadersDoNotConflict(t *testing.T) {
	eng, m, u := env(t, 4, 4)
	a := m.AllocLines(1)
	m.Poke(a, 77)
	statuses := make([]Status, 4)
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			statuses[idx] = u.Run(c, func(tx *Tx) {
				if tx.Load(a) != 77 {
					t.Errorf("reader saw wrong value")
				}
				tx.Work(100)
			})
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	for i, s := range statuses {
		if s != 0 {
			t.Fatalf("reader %d aborted: %v", i, s)
		}
	}
}

func TestNestedTransactionPanics(t *testing.T) {
	forEachMode(t, func(t *testing.T, outer mode) {
		forEachMode(t, func(t *testing.T, inner mode) {
			eng, _, u := env(t, 1, 1)
			_, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
				outer.run(u, c, func(tx *Tx) {
					inner.run(u, c, func(tx2 *Tx) {})
				})
			}})
			if err == nil {
				t.Fatalf("nested transaction did not panic")
			}
		})
	})
}

func TestBodyPanicPropagates(t *testing.T) {
	forEachMode(t, func(t *testing.T, md mode) {
		eng, _, u := env(t, 1, 1)
		_, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			md.run(u, c, func(tx *Tx) { panic("application bug") })
		}})
		if err == nil {
			t.Fatalf("application panic swallowed by the HTM")
		}
	})
}

// TestUnwindLeavesRegistryClean: an attempt that ends by anything other
// than commit or abort — a programming error in the body, or the engine
// abandoning the run (MaxCycles) while the thread is suspended mid-body —
// must still leave the unit as a commit would: no reader bit, no
// writership, not active, the core's L1 share returned, and a following
// attempt on a fresh engine commits.
func TestUnwindLeavesRegistryClean(t *testing.T) {
	unwinds := []struct {
		name      string
		maxCycles uint64
		tail      func(tx *Tx) // runs after the load and the store
	}{
		{"body-panic", 0, func(*Tx) { panic("application bug") }},
		{"max-cycles", 500, func(tx *Tx) { tx.Work(10_000) }},
	}
	forEachMode(t, func(t *testing.T, md mode) {
		for _, uw := range unwinds {
			t.Run(uw.name, func(t *testing.T) {
				cfg := machine.Config{
					Topo:      topology.MustFromFlat(2, 1),
					Seed:      42,
					Cost:      machine.DefaultCostModel(),
					MaxCycles: uw.maxCycles,
				}
				eng, err := machine.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m := mem.New(1 << 12)
				u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16})
				a, b := m.AllocLines(1), m.AllocLines(1)
				_, err = eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
					md.run(u, c, func(tx *Tx) {
						tx.Load(a)
						tx.Store(b, 1)
						uw.tail(tx)
					})
				}})
				if err == nil {
					t.Fatalf("run succeeded, want the unwind's error")
				}
				if r := m.LineReaders(mem.LineOf(a)); !r.Empty() {
					t.Errorf("LineReaders(a) = %v after unwind, want empty", r)
				}
				if w := m.LineWriter(mem.LineOf(b)); w != -1 {
					t.Errorf("LineWriter(b) = %d after unwind, want -1", w)
				}
				if u.Active(0) {
					t.Errorf("Active(0) after unwind")
				}
				if n := u.coreActive[u.txns[0].core]; n != 0 {
					t.Errorf("coreActive = %d after unwind, want 0", n)
				}
				if m.Peek(b) != 0 {
					t.Errorf("unwound store published: %d", m.Peek(b))
				}
				// The unit is reusable: the same thread commits next time.
				eng2, err := machine.New(machine.Config{Topo: cfg.Topo, Seed: 42, Cost: cfg.Cost})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng2.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
					if st := md.run(u, c, func(tx *Tx) { tx.Store(b, tx.Load(a)+2) }); st != 0 {
						t.Errorf("attempt after unwind: %v, want commit", st)
					}
				}}); err != nil {
					t.Fatal(err)
				}
				if m.Peek(b) != 2 {
					t.Errorf("commit after unwind wrote %d, want 2", m.Peek(b))
				}
			})
		}
	})
}

func TestSpuriousAborts(t *testing.T) {
	cfg := machine.Config{Topo: topology.Flat(1), Seed: 3, Cost: machine.DefaultCostModel()}
	eng, _ := machine.New(cfg)
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0.05})
	a := m.AllocLines(1)
	sawSpurious := false
	eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		for i := 0; i < 200; i++ {
			st := u.Run(c, func(tx *Tx) {
				for j := 0; j < 10; j++ {
					tx.Load(a)
				}
			})
			if st&BitSpurious != 0 {
				sawSpurious = true
			}
		}
	}})
	if !sawSpurious {
		t.Fatalf("no spurious aborts at 5%% per access over 2000 accesses")
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		0:                      "committed",
		BitConflict | BitRetry: "retry|conflict",
		BitCapacity:            "capacity",
		BitExplicit | 0x42<<24: "explicit(66)",
		BitSpurious:            "spurious",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Status(%#x).String() = %q, want %q", uint32(s), got, want)
		}
	}
}

// TestAbortRollsBackEverything: after an abort no partial state is
// visible and a retry sees the pre-transaction values.
func TestAbortRollsBackEverything(t *testing.T) {
	eng, m, u := env(t, 1, 1)
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	m.Poke(a, 10)
	m.Poke(b, 20)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		u.Run(c, func(tx *Tx) {
			tx.Store(a, 11)
			tx.Store(b, 21)
			tx.Abort(1)
		})
		st := u.Run(c, func(tx *Tx) {
			if tx.Load(a) != 10 || tx.Load(b) != 20 {
				t.Errorf("retry saw partial state: %d %d", tx.Load(a), tx.Load(b))
			}
		})
		if st != 0 {
			t.Errorf("clean retry aborted: %v", st)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestActiveTracking: Unit.Active reflects in-flight transactions.
func TestActiveTracking(t *testing.T) {
	forEachMode(t, func(t *testing.T, md mode) {
		eng, m, u := env(t, 1, 1)
		a := m.AllocLines(1)
		if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			if u.Active(0) {
				t.Errorf("active before begin")
			}
			md.run(u, c, func(tx *Tx) {
				tx.Load(a)
				if !u.Active(0) {
					t.Errorf("not active inside transaction")
				}
			})
			if u.Active(0) {
				t.Errorf("still active after commit")
			}
			md.run(u, c, func(tx *Tx) { tx.Abort(1) })
			if u.Active(0) {
				t.Errorf("still active after abort")
			}
		}}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFalseSharing: two threads writing different words of the SAME cache
// line conflict; different lines do not.
func TestFalseSharing(t *testing.T) {
	eng, m, u := env(t, 2, 2)
	line := m.AllocLines(1)
	sep := m.AllocLines(2)
	run := func(a0, a1 mem.Addr) (Status, Status) {
		var s0, s1 Status
		eng.Run([]func(*machine.Ctx){
			func(c *machine.Ctx) {
				s0 = u.Run(c, func(tx *Tx) {
					tx.Store(a0, 1)
					tx.Work(300)
				})
			},
			func(c *machine.Ctx) {
				c.Tick(50)
				s1 = u.Run(c, func(tx *Tx) {
					tx.Store(a1, 2)
					tx.Work(10)
				})
			},
		})
		return s0, s1
	}
	s0, s1 := run(line, line+3) // same line, different words
	if !s0.Conflict() && !s1.Conflict() {
		t.Fatalf("false sharing not detected: %v %v", s0, s1)
	}
	s0, s1 = run(sep, sep+mem.LineWords) // different lines
	if s0 != 0 || s1 != 0 {
		t.Fatalf("independent lines conflicted: %v %v", s0, s1)
	}
}

// TestFourWaySMTQuartersCapacity: with 4 hyperthreads per core all
// transactional, the per-thread budget drops to a quarter.
func TestFourWaySMTQuartersCapacity(t *testing.T) {
	eng, m, u := env(t, 4, 1) // 4 hardware threads on one physical core
	bases := make([]mem.Addr, 4)
	for i := range bases {
		bases[i] = m.AllocLines(8)
	}
	statuses := make([]Status, 4)
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			statuses[idx] = u.Run(c, func(tx *Tx) {
				// 6 written lines: fine solo (cap 16), fine at 2-way
				// (8), over budget at 4-way SMT (4).
				for l := 0; l < 6; l++ {
					tx.Store(bases[idx]+mem.Addr(l*mem.LineWords), 1)
					tx.Work(50)
				}
				tx.Work(200)
			})
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	sawCapacity := false
	for _, s := range statuses {
		if s.Capacity() {
			sawCapacity = true
		}
	}
	if !sawCapacity {
		t.Fatalf("no capacity aborts with 4 transactional siblings: %v", statuses)
	}
}

// TestCoreOfWideMachine pins the thread-to-core table on machines with
// more than 127 cores. The table used to be []int8, which silently
// wrapped negative past core 127 and indexed coreActive out of range;
// the guard would have caught that regression the day the topology
// ceiling rose past one word.
func TestCoreOfWideMachine(t *testing.T) {
	shapes := []topology.Topology{
		topology.Flat(256),       // 256 cores, no SMT: coreOf is identity
		topology.Multi(4, 64, 1), // 256 cores across sockets
		topology.Multi(2, 64, 2), // 256 threads on 128 cores, 2-way SMT
		topology.Multi(4, 16, 2), // the scaling exhibit's 128-thread shape
	}
	for _, topo := range shapes {
		cfg := machine.Config{Topo: topo, Seed: 1, Cost: machine.DefaultCostModel()}
		u := New(mem.New(1<<8), cfg, Config{ReadSetLines: 64, WriteSetLines: 16})
		for hw := 0; hw < topo.Threads(); hw++ {
			core := u.txns[hw].core
			if want := int32(topo.CoreOf(hw)); core != want {
				t.Fatalf("%v: core of %d = %d, want %d", topo, hw, core, want)
			}
			if core < 0 || int(core) >= len(u.coreActive) {
				t.Fatalf("%v: core of %d = %d outside coreActive[0:%d]",
					topo, hw, core, len(u.coreActive))
			}
		}
	}
}

// TestHighThreadSiblingCapacity reruns the shared-L1 capacity scenario
// on hyperthread siblings whose ids live past the old 64-thread word:
// on a 2s64c2t machine, threads 10 and 138 share physical core 10.
func TestHighThreadSiblingCapacity(t *testing.T) {
	topo := topology.Multi(2, 64, 2)
	cfg := machine.Config{Topo: topo, Seed: 42, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	lo, hi := 10, 10+topo.Cores() // sibling pair on core 10
	if topo.CoreOf(lo) != topo.CoreOf(hi) || hi < 128 {
		t.Fatalf("test shape broken: %d and %d on cores %d and %d",
			lo, hi, topo.CoreOf(lo), topo.CoreOf(hi))
	}
	base := m.AllocLines(64)
	sibBase := m.AllocLines(4)
	var statusLo Status
	bodies := make([]func(*machine.Ctx), topo.Threads())
	bodies[lo] = func(c *machine.Ctx) {
		// 12 written lines: under the solo cap (16), over the shared cap (8).
		statusLo = u.Run(c, func(tx *Tx) {
			for i := 0; i < 12; i++ {
				tx.Store(base+mem.Addr(i*mem.LineWords), 1)
				tx.Work(20)
			}
		})
	}
	bodies[hi] = func(c *machine.Ctx) {
		u.Run(c, func(tx *Tx) {
			for i := 0; i < 3; i++ {
				tx.Store(sibBase+mem.Addr(i), 1)
				tx.Work(120)
			}
		})
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if !statusLo.Capacity() {
		t.Fatalf("status = %v, want capacity (siblings past id 127 must share the L1 budget)", statusLo)
	}
}

// TestConflictAcrossWordBoundary pins requester-wins conflict detection
// between threads in different words of the reader bitset (ids 3 and
// 200 on a 256-thread machine).
func TestConflictAcrossWordBoundary(t *testing.T) {
	topo := topology.Flat(256)
	cfg := machine.Config{Topo: topo, Seed: 42, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: 64, WriteSetLines: 16, SpuriousProb: 0})
	a := m.AllocLines(1)
	var early, late Status
	bodies := make([]func(*machine.Ctx), topo.Threads())
	bodies[200] = func(c *machine.Ctx) {
		early = u.Run(c, func(tx *Tx) {
			tx.Store(a, 1) // registers first
			tx.Work(500)   // long vulnerable window
		})
	}
	bodies[3] = func(c *machine.Ctx) {
		c.Tick(100) // start later
		late = u.Run(c, func(tx *Tx) {
			tx.Store(a, 2) // dooms thread 200 (requester wins)
		})
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if !early.Conflict() {
		t.Fatalf("early status = %v, want conflict", early)
	}
	if late != 0 {
		t.Fatalf("late status = %v, want commit", late)
	}
	if m.Peek(a) != 2 {
		t.Fatalf("memory = %d, want the winner's value 2", m.Peek(a))
	}
}

// TestStatusCausePriority: Status.Cause is the one abort classification —
// the HTM's own counters, the timeline's abort columns and the attribution
// sink's cause rows all index by it — so each status must land in the slot
// its name says, with conflict beating capacity beating explicit.
func TestStatusCausePriority(t *testing.T) {
	for _, c := range []struct {
		status Status
		want   Cause
	}{
		{BitConflict | BitRetry, CauseConflict},
		{BitCapacity, CauseCapacity},
		{BitExplicit | BitRetry, CauseExplicit},
		{BitSpurious | BitRetry, CauseSpurious},
		{BitRetry, CauseOther},
		{BitConflict | BitCapacity | BitExplicit, CauseConflict},
		{BitCapacity | BitExplicit, CauseCapacity},
	} {
		if got := c.status.Cause(); got != c.want {
			t.Errorf("%v: cause %d, want %d", c.status, got, c.want)
		}
	}
}
