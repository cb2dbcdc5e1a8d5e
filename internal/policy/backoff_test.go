package policy

import (
	"testing"
	"testing/quick"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
)

// TestBackoffAtomicity: the backoff policy preserves atomicity and uses
// only the two RTM modes (plain hardware commits and SGL fall-backs —
// backoff never takes scheduler locks).
func TestBackoffAtomicity(t *testing.T) {
	r := newRig(t, 4)
	pol := NewBackoff(r.sgl, 5, 4)
	modes := r.runCounter(t, pol, 4, 100)
	if modes[ModeHTMAux] != 0 || modes[ModeHTMTx] != 0 || modes[ModeHTMCore] != 0 {
		t.Fatalf("Backoff used lock modes: %v", modes)
	}
	waits, cycles, maxWin := r.ledger.BackoffWaits, r.ledger.BackoffCycles, pol.PeakWindow()
	if waits == 0 || cycles == 0 {
		t.Fatalf("no backoff waits under 4-thread contention: waits=%d cycles=%d", waits, cycles)
	}
	if cycles < waits { // every wait is at least one cycle
		t.Fatalf("cycles %d < waits %d", cycles, waits)
	}
	if maxWin > maxWindow {
		t.Fatalf("high-water window %d exceeds cap %d", maxWin, maxWindow)
	}
}

// TestBackoffWindowBounds is the property test for the window dynamics:
// under any sequence of grows (aborts) and shrinks (commits) the window
// stays within [minWindow, maxWindow], the high-water mark never exceeds
// the cap, and a shrink never increases the window.
func TestBackoffWindowBounds(t *testing.T) {
	prop := func(ops []bool) bool {
		p := NewBackoff(spinlock.Lock{}, 5, 1)
		for _, growOp := range ops {
			before := p.Window(0)
			if growOp {
				p.grow(0)
			} else {
				p.shrink(0)
				if p.Window(0) > before {
					return false
				}
			}
			w := p.Window(0)
			if w < minWindow || w > maxWindow {
				return false
			}
			if p.peak > maxWindow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffWindowSaturatesAndFloors: the window saturates exactly at
// the cap under repeated aborts and floors exactly at the minimum under
// repeated commits. The peak keeps the cap until BeginRun restarts it at
// the current window for the next Run.
func TestBackoffWindowSaturatesAndFloors(t *testing.T) {
	p := NewBackoff(spinlock.Lock{}, 5, 1)
	for i := 0; i < 64; i++ {
		p.grow(0)
	}
	if p.Window(0) != maxWindow {
		t.Fatalf("window %d after 64 grows, want cap %d", p.Window(0), maxWindow)
	}
	for i := 0; i < 64; i++ {
		p.shrink(0)
	}
	if p.Window(0) != minWindow {
		t.Fatalf("window %d after 64 shrinks, want floor %d", p.Window(0), minWindow)
	}
	if p.PeakWindow() != maxWindow {
		t.Fatalf("peak %d after saturating, want cap %d", p.PeakWindow(), maxWindow)
	}
	p.BeginRun()
	if p.PeakWindow() != minWindow {
		t.Fatalf("peak %d after BeginRun, want the current window %d", p.PeakWindow(), minWindow)
	}
}

// TestBackoffShrinksAfterCommit: a committing transaction halves the
// thread's window (down to the floor) — the policy must not stay maximally
// backed off once contention clears.
func TestBackoffShrinksAfterCommit(t *testing.T) {
	r := newRig(t, 1)
	pol := NewBackoff(r.sgl, 5, 1)
	counter := r.m.AllocLines(1)
	pol.win[0] = maxWindow // as if deeply backed off
	if _, err := r.eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		th := NewThread(c, r.m, r.u)
		pol.Run(th, 0, 0, func(a mem.Access) {
			a.Store(counter, a.Load(counter)+1)
		})
	}}); err != nil {
		t.Fatal(err)
	}
	if got, want := pol.Window(0), maxWindow/2; got != want {
		t.Fatalf("window after commit = %d, want %d", got, want)
	}
}

// TestBackoffDeterminism: two systems with identical seeds produce
// identical backoff counters — the waits draw only from the per-thread
// deterministic PRNG streams.
func TestBackoffDeterminism(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		r := newRig(t, 4)
		pol := NewBackoff(r.sgl, 5, 4)
		r.runCounter(t, pol, 4, 100)
		return r.ledger.BackoffWaits, r.ledger.BackoffCycles, pol.PeakWindow()
	}
	w1, c1, m1 := run()
	w2, c2, m2 := run()
	if w1 != w2 || c1 != c2 || m1 != m2 {
		t.Fatalf("backoff counters diverged across same-seed runs: (%d,%d,%d) vs (%d,%d,%d)",
			w1, c1, m1, w2, c2, m2)
	}
}

// TestBackoffCommitPathZeroAllocs: the uncontended commit path — attempt,
// shrink, commit — must not touch the heap in steady state.
func TestBackoffCommitPathZeroAllocs(t *testing.T) {
	r := newRig(t, 1)
	pol := NewBackoff(r.sgl, 5, 1)
	counter := r.m.AllocLines(1)
	if _, err := r.eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		th := NewThread(c, r.m, r.u)
		body := func(a mem.Access) {
			a.Store(counter, a.Load(counter)+1)
		}
		pol.Run(th, 0, 0, body) // warm-up
		allocs := testing.AllocsPerRun(100, func() {
			pol.Run(th, 0, 0, body)
		})
		if allocs != 0 {
			t.Errorf("steady-state Backoff commit path allocates %.1f per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffAbortPathZeroAllocs: the abort path — grow, randomized
// bounded park, retry, SGL fall-back — must not touch the heap in steady
// state either. Capacity aborts (32 lines against a 16-line write budget)
// force every attempt down the wait path.
func TestBackoffAbortPathZeroAllocs(t *testing.T) {
	r := newRig(t, 1)
	pol := NewBackoff(r.sgl, 3, 1)
	region := r.m.AllocLines(40)
	if _, err := r.eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		th := NewThread(c, r.m, r.u)
		body := func(a mem.Access) {
			base := region
			for i := 0; i < 32; i++ {
				a.Store(base, 1)
				base += mem.LineWords
			}
		}
		pol.Run(th, 0, 0, body) // warm-up sizes the event queue
		if th.BackoffWaits == 0 {
			t.Fatal("warm-up issued no backoff waits; the guard would measure nothing")
		}
		allocs := testing.AllocsPerRun(100, func() {
			pol.Run(th, 0, 0, body)
		})
		if allocs != 0 {
			t.Errorf("steady-state Backoff abort path allocates %.1f per run, want 0", allocs)
		}
	}}); err != nil {
		t.Fatal(err)
	}
}
