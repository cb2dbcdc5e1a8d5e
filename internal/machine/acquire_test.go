package machine

import (
	"slices"
	"testing"
)

// The lock-protocol equivalence tests run one lock program on two engines
// — one with the runtime wiring installed (SetLockWordOps, so AcquireWord
// delegates the TTS protocol, wake-time polls included, to the event loop)
// and the unwired ticking reference (AcquireWord reports false and a
// hand-rolled ticking loop mirroring spinlock.Acquire runs instead, so
// every woken acquirer resumes to run its own poll) — and require the full
// tick-hook stream, every acquire cycle and every bounded-wait verdict to
// match exactly. The lock word lives in plain test state; both engines'
// bodies and ops close over the same variable.

const (
	taLoad   = 2           // DirectLoad of the default cost model
	taCAS    = 25          // LockOp
	taPeriod = 25 + taLoad // poll period: SpinQuantum + DirectLoad
)

// A lock program is a byte string of (op, arg) pairs dealt round-robin to
// the threads: pair k is the next step of thread k mod nThreads.
const (
	opAcquire = iota // acquire the lock (unless already held), then Tick(arg)
	opRelease        // release the lock (if held)
	opWait           // bounded wait for the lock to be free, budget 1 + arg%6 polls
	opTick           // Tick(1 + arg)
	numLockOps
)

// lockTrace is everything a lock program lets an observer see.
type lockTrace struct {
	hooks    []uint64   // the engine's complete tick-hook stream
	acqs     [][]uint64 // per thread: acquire-completion clocks
	waits    [][]uint64 // per thread: bounded-wait verdict clocks, +1<<63 when it gave up
	makespan uint64
}

// runLockProgram runs prog on nThreads threads contending for one lock. A
// thread still holding the lock when its steps run out releases it, so
// every program terminates.
func runLockProgram(t *testing.T, nThreads int, prog []byte, wired bool) lockTrace {
	t.Helper()
	eng := parkEngine(t, nThreads)
	const key = 99
	var word uint64
	if wired {
		eng.SetLockWordOps(
			func(_ int, _ uint64) uint64 { return word },
			func(_ int, _ uint64, v uint64) { word = v })
	}
	tr := lockTrace{acqs: make([][]uint64, nThreads), waits: make([][]uint64, nThreads)}
	verify := watchStates(t, eng, func(now uint64) { tr.hooks = append(tr.hooks, now) })
	bodies := make([]func(*Ctx), nThreads)
	for i := range bodies {
		id := i
		bodies[i] = func(c *Ctx) {
			owner := uint64(id) + 1
			held := false
			release := func() {
				c.Tick(taCAS)
				word = 0
				c.WakeKey(key)
				held = false
			}
			for k := 2 * id; k+1 < len(prog); k += 2 * nThreads {
				op, arg := prog[k]%numLockOps, uint64(prog[k+1])
				switch {
				case op == opAcquire && !held:
					if !c.AcquireWord(key, owner) {
						// The fallback spinlock.Acquire runs when the engine
						// has no lock-word ops: poll tick + load, CAS tick +
						// load-and-store, park on busy.
						for {
							c.Tick(taLoad)
							if word == 0 {
								c.Tick(taCAS)
								if word != 0 {
									continue
								}
								word = owner
								break
							}
							c.ParkOnWord(key, taPeriod, taLoad, 0)
						}
					}
					held = true
					tr.acqs[id] = append(tr.acqs[id], c.Clock())
					c.Tick(arg)
				case op == opRelease && held:
					release()
				case op == opWait:
					ok, at := boundedWait(c, key, &word, 1+int(arg%6))
					if !ok {
						at |= 1 << 63
					}
					tr.waits[id] = append(tr.waits[id], at)
				case op == opTick:
					c.Tick(1 + arg)
				}
			}
			if held {
				release()
			}
		}
	}
	var err error
	if tr.makespan, err = eng.Run(bodies); err != nil {
		t.Fatalf("wired=%v: %v", wired, err)
	}
	verify()
	return tr
}

// checkLockProtocolEquivalence fails unless the wired engine's observable
// streams are identical to the ticking reference's.
func checkLockProtocolEquivalence(t *testing.T, nThreads int, prog []byte) {
	t.Helper()
	ref := runLockProgram(t, nThreads, prog, false)
	got := runLockProgram(t, nThreads, prog, true)
	if !slices.Equal(ref.hooks, got.hooks) {
		t.Fatalf("n=%d prog=%v: hook streams differ (%d ticking vs %d wired)",
			nThreads, prog, len(ref.hooks), len(got.hooks))
	}
	if ref.makespan != got.makespan {
		t.Fatalf("n=%d prog=%v: makespan %d (ticking) vs %d (wired)", nThreads, prog, ref.makespan, got.makespan)
	}
	for id := range ref.acqs {
		if !slices.Equal(ref.acqs[id], got.acqs[id]) {
			t.Fatalf("n=%d prog=%v thread %d: acquire cycles %v (ticking) vs %v (wired)",
				nThreads, prog, id, ref.acqs[id], got.acqs[id])
		}
		if !slices.Equal(ref.waits[id], got.waits[id]) {
			t.Fatalf("n=%d prog=%v thread %d: bounded waits %v (ticking) vs %v (wired)",
				nThreads, prog, id, ref.waits[id], got.waits[id])
		}
	}
}

// contentionShapes are the fixed scenarios delegated acquire shipped with:
// n contenders, each acquiring, holding (a per-thread duration) and
// releasing the lock rounds times.
var contentionShapes = []struct{ n, rounds int }{{1, 3}, {2, 3}, {3, 4}, {8, 3}}

// shapeProgram encodes one contention shape as a lock program.
func shapeProgram(n, rounds int) []byte {
	var prog []byte
	for r := 0; r < rounds; r++ {
		for id := 0; id < n; id++ {
			prog = append(prog, opAcquire, byte(5+11*id))
		}
		for id := 0; id < n; id++ {
			prog = append(prog, opRelease, 0)
		}
	}
	return prog
}

// TestDelegatedAcquireEquivalence: for several contention shapes, the
// delegated protocol's observable streams must be identical to the
// ticking loop's.
func TestDelegatedAcquireEquivalence(t *testing.T) {
	for _, shape := range contentionShapes {
		checkLockProtocolEquivalence(t, shape.n, shapeProgram(shape.n, shape.rounds))
	}
}

// FuzzLockProtocolEquivalence extends the fixed shapes to arbitrary lock
// programs: random thread counts and hold times, acquires racing bounded
// waits, releases landing on and between poll boundaries. The engine-side
// shortcut (delegated acquire, its woken polls included) must be invisible
// for every one of them.
func FuzzLockProtocolEquivalence(f *testing.F) {
	for _, shape := range contentionShapes {
		f.Add(uint8(shape.n-1), shapeProgram(shape.n, shape.rounds))
	}
	// Bounded waiters against a holder, and a waiter that outlives its budget.
	f.Add(uint8(2), []byte{opAcquire, 200, opWait, 3, opWait, 0, opRelease, 0, opAcquire, 9, opTick, 40})
	f.Add(uint8(1), []byte{opAcquire, 255, opWait, 0, opTick, 255, opWait, 5, opRelease, 0, opAcquire, 0})
	// A bounded wait (budget 5, first poll at cycle 33) on a word held
	// since cycle 27 and released at cycle 52 + hold: the releases sweep
	// across poll boundaries and past the wait's final one.
	for hold := 0; hold < 256; hold += 13 {
		f.Add(uint8(1), []byte{opAcquire, byte(hold), opTick, 30, opRelease, 0, opWait, 4})
	}
	f.Fuzz(func(t *testing.T, threads uint8, prog []byte) {
		if len(prog) > 512 {
			t.Skip("program too long")
		}
		checkLockProtocolEquivalence(t, 1+int(threads%8), prog)
	})
}

// boundedWait mirrors spinlock.SpinWhileLockedBounded's loop: poll, park
// bounded on busy, give up when the budget runs out. Returns whether the
// word was observed free and the clock of the deciding poll.
func boundedWait(c *Ctx, key uint64, word *uint64, maxSpins int) (bool, uint64) {
	for i := 0; ; {
		c.Tick(taLoad)
		if *word == 0 {
			return true, c.Clock()
		}
		if i >= maxSpins {
			return false, c.Clock()
		}
		before := c.Clock()
		c.ParkOnWord(key, taPeriod, taLoad, maxSpins-i)
		i += int((c.Clock() + taLoad - before) / taPeriod)
	}
}
