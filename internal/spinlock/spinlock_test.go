package spinlock

import (
	"testing"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

func env(t *testing.T, threads int) (*machine.Engine, *mem.Memory, *htm.Unit) {
	t.Helper()
	cfg := machine.Config{Topo: topology.Flat(threads), Seed: 7, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 10)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 32, WriteSetLines: 8})
	Wire(eng, m)
	return eng, m, u
}

func TestAcquireRelease(t *testing.T) {
	eng, m, _ := env(t, 1)
	l := New(m)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		if l.LockedFast(m) {
			t.Errorf("fresh lock is held")
		}
		l.Acquire(c, m)
		if !l.LockedFast(m) {
			t.Errorf("acquired lock not held")
		}
		l.Release(c, m)
		if l.LockedFast(m) {
			t.Errorf("released lock still held")
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	eng, m, _ := env(t, 1)
	l := New(m)
	_, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		l.Release(c, m) // never acquired
	}})
	if err == nil {
		t.Fatalf("release by non-owner did not panic")
	}
}

// TestMutualExclusion: N threads incrementing a counter under the lock
// never lose updates.
func TestMutualExclusion(t *testing.T) {
	eng, m, _ := env(t, 4)
	l := New(m)
	counter := m.AllocLines(1)
	const perThread = 50
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		bodies[i] = func(c *machine.Ctx) {
			for n := 0; n < perThread; n++ {
				l.Acquire(c, m)
				v := m.DirectLoad(c.ID(), counter)
				c.Tick(5)
				m.DirectStore(c.ID(), counter, v+1)
				l.Release(c, m)
				c.Tick(uint64(c.Rand().Intn(20)))
			}
		}
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(counter); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

// TestTransactionSubscription: a transaction subscribed to the lock aborts
// when the lock is later acquired (the SGL-fallback correctness property).
func TestTransactionSubscription(t *testing.T) {
	eng, m, u := env(t, 2)
	l := New(m)
	data := m.AllocLines(1)
	var txStatus htm.Status
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			txStatus = u.RunSubscribed(c, false, l.Addr(), CodeSGLHeld, func(tx mem.Access) {
				tx.Load(data)
				tx.Work(500) // stay inside while thread 1 acquires
			})
		},
		func(c *machine.Ctx) {
			c.Tick(50)
			l.Acquire(c, m)
			c.Tick(10)
			l.Release(c, m)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if !txStatus.Conflict() {
		t.Fatalf("subscribed transaction survived lock acquisition: %v", txStatus)
	}
}

// TestAcquireTxMultiCAS: batching two lock acquisitions in one hardware
// transaction takes both or neither.
func TestAcquireTxMultiCAS(t *testing.T) {
	eng, m, u := env(t, 1)
	l1, l2 := New(m), New(m)
	if _, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		st := u.Run(c, func(tx *htm.Tx) {
			l1.AcquireTx(tx, c)
			l2.AcquireTx(tx, c)
		})
		if st != 0 {
			t.Errorf("multi-CAS aborted: %v", st)
		}
		if !l1.LockedFast(m) || !l2.LockedFast(m) {
			t.Errorf("locks not held after multi-CAS")
		}
		l1.ReleaseOwned(c, m)
		l2.ReleaseOwned(c, m)

		// Now hold l2 and verify the batch takes neither.
		l2.Acquire(c, m)
		st = u.Run(c, func(tx *htm.Tx) {
			l1.AcquireTx(tx, c)
			l2.AcquireTx(tx, c) // busy → explicit abort
		})
		if !st.Explicit() || st.ExplicitCode() != CodeLockBusy {
			t.Errorf("busy multi-CAS status = %v", st)
		}
		if l1.LockedFast(m) {
			t.Errorf("partial multi-CAS left l1 held")
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinWhileLockedBounded(t *testing.T) {
	eng, m, _ := env(t, 2)
	l := New(m)
	var gaveUp bool
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			l.Acquire(c, m)
			c.Tick(1 << 20) // hold essentially forever
			l.Release(c, m)
		},
		func(c *machine.Ctx) {
			c.Tick(100)
			gaveUp = !l.SpinWhileLockedBounded(c, m, 16)
		},
	}
	if _, err := eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if !gaveUp {
		t.Fatalf("bounded spin did not give up on a long-held lock")
	}
}

func TestLocksOnDistinctLines(t *testing.T) {
	m := mem.New(1 << 10)
	a, b := New(m), New(m)
	if mem.LineOf(a.Addr()) == mem.LineOf(b.Addr()) {
		t.Fatalf("two locks share a cache line (false conflicts)")
	}
}
