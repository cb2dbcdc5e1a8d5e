package core

import (
	"testing"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/telemetry"
	"seer/internal/topology"
	"seer/internal/tune"
)

// env builds a machine + memory + HTM + Seer instance for scheduler-level
// tests.
func env(t *testing.T, threads int, opts Options) (*machine.Engine, *mem.Memory, *htm.Unit, *Seer) {
	t.Helper()
	cfg := machine.Config{Topo: topology.MustFromFlat(threads, (threads+1)/2), Seed: 11, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 12)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 64, WriteSetLines: 16})
	spinlock.Wire(eng, m)
	rng := machine.NewRand(5)
	s := New(3, cfg, m, u, opts, &rng)
	return eng, m, u, s
}

func staticOptions() Options {
	o := DefaultOptions()
	o.HillClimb = false
	return o
}

func TestAnnouncement(t *testing.T) {
	eng, _, _, s := env(t, 2, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		s.Start(ts, 2, 0)
		if got := s.ActiveTxs()[0]; got != 2 {
			t.Errorf("activeTxs[0] = %d, want 2", got)
		}
		s.Finish(ts)
		if got := s.ActiveTxs()[0]; got != NoTx {
			t.Errorf("activeTxs[0] = %d after finish, want NoTx", got)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterScansConcurrent(t *testing.T) {
	eng, _, _, s := env(t, 2, staticOptions())
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 0, 0)
			c.Tick(50)
			// Thread 1 announced tx 1 by now; this commit must record it.
			s.RegisterCommit(ts, 0)
			s.RegisterAbort(ts, 0)
			s.Finish(ts)
			if ts.Mats().Commits(0, 1) != 1 {
				t.Errorf("commitStats[0][1] = %d, want 1", ts.Mats().Commits(0, 1))
			}
			if ts.Mats().Aborts(0, 1) != 1 {
				t.Errorf("abortStats[0][1] = %d, want 1", ts.Mats().Aborts(0, 1))
			}
			if ts.Mats().Execs(0) != 2 {
				t.Errorf("executions[0] = %d, want 2", ts.Mats().Execs(0))
			}
		},
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 1, 0)
			c.Tick(1000)
			s.Finish(ts)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterDeduplicatesBlocks: several threads running the same block
// count once per event, keeping the estimators valid probabilities.
func TestRegisterDeduplicatesBlocks(t *testing.T) {
	eng, _, _, s := env(t, 4, staticOptions())
	bodies := make([]func(*machine.Ctx), 4)
	bodies[0] = func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		s.Start(ts, 0, 0)
		c.Tick(100)
		s.RegisterAbort(ts, 0)
		s.Finish(ts)
		if got := ts.Mats().Aborts(0, 1); got != 1 {
			t.Errorf("abortStats[0][1] = %d, want 1 (deduplicated)", got)
		}
	}
	for i := 1; i < 4; i++ {
		bodies[i] = func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 1, 0) // three threads all running block 1
			c.Tick(1000)
			s.Finish(ts)
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSchemeInfersConflict: feed statistics where block 0 aborts
// overwhelmingly with block 1 active, and check the scheme links them
// both ways.
func TestUpdateSchemeInfersConflict(t *testing.T) {
	eng, _, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 1)
		}
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddCommit(0, 2)
		}
		for i := 0; i < 30; i++ {
			// Noise: occasional aborts seen with block 2 active.
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 2)
		}
		s.UpdateScheme(c)
	}}); err != nil {
		t.Fatal(err)
	}
	scheme := s.Scheme()
	if len(scheme[0]) != 1 || scheme[0][0] != 1 {
		t.Fatalf("scheme[0] = %v, want [1]", scheme[0])
	}
	if len(scheme[1]) != 1 || scheme[1][0] != 0 {
		t.Fatalf("scheme[1] = %v, want [0] (locks are mutual)", scheme[1])
	}
	if len(scheme[2]) != 0 {
		t.Fatalf("scheme[2] = %v, want empty (below thresholds)", scheme[2])
	}
}

// TestUpdateSchemeSelfConflict: a single hot block that conflicts with
// itself gets its own lock (the degenerate single-candidate case).
func TestUpdateSchemeSelfConflict(t *testing.T) {
	eng, _, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 0)
		}
		for i := 0; i < 50; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddCommit(0, 0)
		}
		s.UpdateScheme(c)
	}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Scheme()[0]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("scheme[0] = %v, want [0]", got)
	}
}

// TestUpdateSchemeBelowTh1Empty: rare conflicts stay unserialized.
func TestUpdateSchemeBelowTh1Empty(t *testing.T) {
	eng, _, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 1000; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddCommit(0, 1)
		}
		for i := 0; i < 10; i++ { // 1% conjunctive abort probability
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 1)
		}
		s.UpdateScheme(c)
	}}); err != nil {
		t.Fatal(err)
	}
	for x, row := range s.Scheme() {
		if len(row) != 0 {
			t.Fatalf("scheme[%d] = %v, want empty under 1%% contention", x, row)
		}
	}
}

// TestAcquireReleaseTxLocks: the last-attempt acquisition takes the
// scheme's locks in order, by one multi-CAS that the thread's ledger
// counts, and releases them all.
func TestAcquireReleaseTxLocks(t *testing.T) {
	eng, m, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		ts.Ledger = new(telemetry.Counters)
		// Force a scheme where block 0 takes locks 1 and 2.
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 1)
			ts.Mats().AddAbort(0, 2)
		}
		s.UpdateScheme(c)

		s.Start(ts, 0, 0)
		s.AcquireLocks(ts, 0, htm.BitConflict, 1)
		if !ts.AcquiredTxLocks || !ts.HoldsTxLocks() {
			t.Errorf("locks not acquired on the last attempt")
		}
		if !s.TxLock(1).LockedFast(m) || !s.TxLock(2).LockedFast(m) {
			t.Errorf("tx locks not held")
		}
		if cas := ts.Ledger.Paths[telemetry.PathMultiCAS]; cas != (telemetry.Outcomes{Attempts: 1}) {
			t.Errorf("ledger multi-CAS outcomes %+v, want one committed attempt", cas)
		}
		s.ReleaseLocks(ts)
		if s.TxLock(1).LockedFast(m) || s.TxLock(2).LockedFast(m) {
			t.Errorf("tx locks not released")
		}
		s.Finish(ts)
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiCASAbortInLedger: a multi-CAS that finds one of its locks held
// aborts explicitly, and the thread's ledger books that outcome before the
// sequential acquisition waits the holder out.
func TestMultiCASAbortInLedger(t *testing.T) {
	eng, m, _, s := env(t, 2, staticOptions())
	var ledger telemetry.Counters
	if _, err := eng.Run([]func(*machine.Ctx){
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			ts.Ledger = &ledger
			for i := 0; i < 100; i++ {
				ts.Mats().IncExec(0)
				ts.Mats().AddAbort(0, 1)
				ts.Mats().AddAbort(0, 2)
			}
			s.UpdateScheme(c)
			c.Tick(100) // thread 1 holds lock 2 by now
			s.Start(ts, 0, 0)
			s.AcquireLocks(ts, 0, htm.BitConflict, 1)
			if !s.TxLock(1).LockedFast(m) || !s.TxLock(2).LockedFast(m) {
				t.Errorf("tx locks not held after the sequential acquisition")
			}
			s.ReleaseLocks(ts)
			s.Finish(ts)
		},
		func(c *machine.Ctx) {
			s.TxLock(2).Acquire(c, m)
			c.Tick(1000)
			s.TxLock(2).Release(c, m)
		},
	}); err != nil {
		t.Fatal(err)
	}
	var want telemetry.Outcomes
	want.Attempts = 1
	want.Aborts[htm.CauseExplicit] = 1
	if cas := ledger.Paths[telemetry.PathMultiCAS]; cas != want {
		t.Errorf("ledger multi-CAS outcomes %+v, want %+v", cas, want)
	}
}

// TestAcquireOnlyOnLastAttempt: locks must not be taken while attempts
// remain.
func TestAcquireOnlyOnLastAttempt(t *testing.T) {
	eng, m, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 1)
		}
		s.UpdateScheme(c)
		s.Start(ts, 0, 0)
		s.AcquireLocks(ts, 0, htm.BitConflict, 3)
		if ts.HoldsTxLocks() || s.TxLock(1).LockedFast(m) {
			t.Errorf("locks taken with 3 attempts left")
		}
		s.ReleaseLocks(ts)
		s.Finish(ts)
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestCoreLockOnCapacity: a capacity abort acquires the physical core's
// lock; a conflict abort does not.
func TestCoreLockOnCapacity(t *testing.T) {
	eng, m, _, s := env(t, 2, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		s.Start(ts, 0, 0)
		s.AcquireLocks(ts, 0, htm.BitConflict|htm.BitRetry, 3)
		if ts.AcquiredCoreLock {
			t.Errorf("core lock taken on a conflict abort")
		}
		s.AcquireLocks(ts, 0, htm.BitCapacity, 3)
		if !ts.AcquiredCoreLock {
			t.Errorf("core lock not taken on a capacity abort")
		}
		if !s.CoreLock(0).LockedFast(m) {
			t.Errorf("core 0's lock not held")
		}
		s.ReleaseLocks(ts)
		if s.CoreLock(0).LockedFast(m) {
			t.Errorf("core lock not released")
		}
		s.Finish(ts)
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestVariantGating: disabled options never acquire locks.
func TestVariantGating(t *testing.T) {
	opts := staticOptions()
	opts.TxLocks = false
	opts.CoreLocks = false
	eng, m, _, s := env(t, 1, opts)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 1)
		}
		s.UpdateScheme(c)
		s.Start(ts, 0, 0)
		s.AcquireLocks(ts, 0, htm.BitCapacity|htm.BitConflict, 1)
		if ts.HoldsTxLocks() || ts.AcquiredCoreLock {
			t.Errorf("profile-only variant acquired locks")
		}
		if s.TxLock(1).LockedFast(m) || s.CoreLock(0).LockedFast(m) {
			t.Errorf("locks held in memory under profile-only variant")
		}
		s.Finish(ts)
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitLocksCooperates: a thread whose block's lock is held waits
// (bounded) until the holder releases.
func TestWaitLocksCooperates(t *testing.T) {
	eng, m, _, s := env(t, 2, staticOptions())
	sgl := spinlock.New(m)
	var waitedUntil uint64
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			// Hold block 0's lock for a while.
			s.TxLock(0).Acquire(c, m)
			c.Tick(500)
			s.TxLock(0).Release(c, m)
		},
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			c.Tick(100)
			s.Start(ts, 0, 0)
			s.WaitLocks(ts, 0, sgl)
			waitedUntil = c.Clock()
			s.Finish(ts)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if waitedUntil < 500 {
		t.Fatalf("thread did not cooperate with the lock holder (resumed at %d)", waitedUntil)
	}
}

// TestWaitLocksSGLLemmingAvoidance: threads wait out the single-global
// lock before starting.
func TestWaitLocksSGLLemmingAvoidance(t *testing.T) {
	eng, m, _, s := env(t, 2, staticOptions())
	sgl := spinlock.New(m)
	var resumed uint64
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			sgl.Acquire(c, m)
			c.Tick(800)
			sgl.Release(c, m)
		},
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			c.Tick(50)
			s.Start(ts, 1, 0)
			s.WaitLocks(ts, 1, sgl)
			resumed = c.Clock()
			s.Finish(ts)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if resumed < 800 {
		t.Fatalf("thread started under a held SGL (resumed at %d)", resumed)
	}
}

// TestHillClimbAdjustsThresholds: after enough epochs the thresholds move
// away from the initial point.
func TestHillClimbAdjustsThresholds(t *testing.T) {
	opts := DefaultOptions()
	opts.EpochExecs = 10
	eng, _, _, s := env(t, 1, opts)
	var ledger telemetry.Counters
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		ts.Ledger = &ledger
		for round := 0; round < 30; round++ {
			for i := 0; i < 12; i++ {
				s.Start(ts, 0, 0)
				s.RegisterCommit(ts, 0)
				s.Finish(ts)
			}
			s.refresh(ts)
			c.Tick(100)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if ledger.SchemeUpdates != 30 {
		t.Fatalf("ledger counts %d scheme updates for 30 refreshes", ledger.SchemeUpdates)
	}
	if s.Tuner() == nil {
		t.Fatalf("tuner missing with HillClimb enabled")
	}
	if s.Tuner().Moves() == 0 {
		t.Fatalf("tuner never received feedback")
	}
	init := tune.DefaultInit()
	th := s.Thresholds()
	if th == init {
		t.Fatalf("thresholds never moved from %+v", init)
	}
}

// TestSchemeRowsSorted: rows come out sorted (deadlock-free acquisition
// order).
func TestSchemeRowsSorted(t *testing.T) {
	eng, _, _, s := env(t, 1, staticOptions())
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(1)
			ts.Mats().AddAbort(1, 2)
			ts.Mats().AddAbort(1, 0)
		}
		s.UpdateScheme(c)
	}}); err != nil {
		t.Fatal(err)
	}
	row := s.Scheme()[1]
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("scheme row not sorted: %v", row)
		}
	}
}

// TestObjLockStripes: with the object-granular extension, transactions of
// the same block but different objects take different locks.
func TestObjLockStripes(t *testing.T) {
	opts := staticOptions()
	opts.ObjLocks = true
	eng, m, _, s := env(t, 1, opts)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		for i := 0; i < 100; i++ {
			ts.Mats().IncExec(0)
			ts.Mats().AddAbort(0, 0)
		}
		s.UpdateScheme(c)

		// Acquire with object 1, then check that a different object's
		// stripe is (very likely) still free while object 1's is held.
		s.Start(ts, 0, 1)
		s.AcquireLocks(ts, 0, htm.BitConflict, 1)
		if !ts.HoldsTxLocks() {
			t.Fatalf("no stripe lock acquired")
		}
		heldStripes := 0
		for st := 0; st < ObjStripes; st++ {
			if s.ObjLock(0, st).LockedFast(m) {
				heldStripes++
			}
		}
		if heldStripes != 1 {
			t.Fatalf("%d stripes held, want exactly 1", heldStripes)
		}
		s.ReleaseLocks(ts)
		for st := 0; st < ObjStripes; st++ {
			if s.ObjLock(0, st).LockedFast(m) {
				t.Fatalf("stripe %d not released", st)
			}
		}
		s.Finish(ts)
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestSampledStatsStayUnbiased: with SampleShift the conditional
// probability estimate converges to the same value as full profiling.
func TestSampledStatsStayUnbiased(t *testing.T) {
	run := func(shift uint) float64 {
		opts := staticOptions()
		opts.SampleShift = shift
		eng, _, _, s := env(t, 2, opts)
		var p float64
		if _, err := eng.Run([]func(*machine.Ctx){
			func(c *machine.Ctx) {
				ts := s.NewThreadState(c)
				// 2000 events: 25% aborts with block 1 active.
				for i := 0; i < 2000; i++ {
					s.Start(ts, 0, 0)
					if i%4 == 0 {
						s.RegisterAbort(ts, 0)
					} else {
						s.RegisterCommit(ts, 0)
					}
					s.Finish(ts)
				}
				s.UpdateScheme(c)
				p = s.Merged().CondAbortProb(0, 1)
			},
			func(c *machine.Ctx) {
				ts := s.NewThreadState(c)
				s.Start(ts, 1, 0)
				c.Tick(1 << 22) // stay active throughout
				s.Finish(ts)
			},
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := run(0)
	sampled := run(2)
	if full < 0.2 || full > 0.3 {
		t.Fatalf("full estimate %v, want ≈0.25", full)
	}
	if sampled < 0.15 || sampled > 0.35 {
		t.Fatalf("sampled estimate %v drifted from ≈0.25 (biased)", sampled)
	}
}

// TestSampledStatsCheaper: sampling reduces the profiling time spent.
func TestSampledStatsCheaper(t *testing.T) {
	run := func(shift uint) uint64 {
		opts := staticOptions()
		opts.SampleShift = shift
		eng, _, _, s := env(t, 1, opts)
		var clock uint64
		if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			for i := 0; i < 1000; i++ {
				s.Start(ts, 0, 0)
				s.RegisterCommit(ts, 0)
				s.Finish(ts)
			}
			clock = c.Clock()
		}}); err != nil {
			t.Fatal(err)
		}
		return clock
	}
	if full, sampled := run(0), run(3); sampled >= full {
		t.Fatalf("sampling not cheaper: %d vs %d cycles", sampled, full)
	}
}

// TestPreciseOracleBlamesOnlyConflictor: under the oracle-input variant,
// an abort increments only the true conflictor's pair, not every active
// block.
func TestPreciseOracleBlamesOnlyConflictor(t *testing.T) {
	opts := staticOptions()
	opts.PreciseOracle = true
	eng, m, u, s := env(t, 4, opts)
	a := m.AllocLines(1)
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 0, 0)
			st := u.Run(c, func(tx *htm.Tx) {
				tx.Store(a, 1)
				tx.Work(500) // doomed by thread 1 below
			})
			if !st.Conflict() {
				t.Errorf("expected a conflict abort, got %v", st)
			}
			s.RegisterAbort(ts, 0)
			s.Finish(ts)
			if got := ts.Mats().Aborts(0, 1); got != 1 {
				t.Errorf("abortStats[0][conflictor-block] = %d, want 1", got)
			}
			if got := ts.Mats().Aborts(0, 2); got != 0 {
				t.Errorf("innocent bystander blamed: abortStats[0][2] = %d", got)
			}
		},
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 1, 0) // the actual conflictor runs block 1
			c.Tick(100)
			u.Run(c, func(tx *htm.Tx) { tx.Store(a, 2) })
			// Stay announced while the victim registers its abort (in
			// real runs the conflictor's slot usually still holds its
			// block, or the loss is absorbed statistically).
			c.Tick(3000)
			s.Finish(ts)
		},
		func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			s.Start(ts, 2, 0) // innocent bystander runs block 2
			c.Tick(2000)
			s.Finish(ts)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
}

// TestNoDeadlockUnderLockChurn is a regression stress test for the
// bounded cooperative waits: threads mix capacity-style core-lock
// acquisitions with tx-lock acquisitions and cooperative waits for many
// iterations; the run must terminate (the unbounded-wait variant of
// WAIT-Seer-LOCKS can deadlock a tx-lock holder against a core-lock
// holder).
func TestNoDeadlockUnderLockChurn(t *testing.T) {
	opts := staticOptions()
	eng, m, _, s := env(t, 4, opts)
	sgl := spinlock.New(m)
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		id := i
		bodies[i] = func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			ts.Ledger = new(telemetry.Counters)
			// Seed statistics so every block serializes with every
			// other (worst-case dense scheme).
			if id == 0 {
				for x := 0; x < 3; x++ {
					for y := 0; y < 3; y++ {
						for k := 0; k < 50; k++ {
							ts.Mats().IncExec(x)
							ts.Mats().AddAbort(x, y)
						}
					}
				}
				s.UpdateScheme(c)
			}
			for n := 0; n < 120; n++ {
				tx := (id + n) % 3
				s.Start(ts, tx, uint64(n))
				s.WaitLocks(ts, tx, sgl)
				// Alternate capacity and conflict abort patterns.
				if n%2 == 0 {
					s.AcquireLocks(ts, tx, htm.BitCapacity, 2)
				}
				s.AcquireLocks(ts, tx, htm.BitConflict, 1)
				c.Tick(uint64(5 + c.Rand().Intn(30)))
				s.RegisterCommit(ts, tx)
				s.ReleaseLocks(ts)
				s.Finish(ts)
			}
		}
	}
	// MaxCycles guards the test itself: if the locks deadlock, the engine
	// reports instead of hanging.
	eng2, err := machine.New(machine.Config{
		Topo: topology.SMT2(2), Seed: 11,
		MaxCycles: 1 << 26, Cost: machine.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng
	spinlock.Wire(eng2, m)
	if _, err := eng2.Run(bodies); err != nil {
		t.Fatalf("lock churn did not terminate: %v", err)
	}
}
