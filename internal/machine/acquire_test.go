package machine

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The lock-protocol equivalence tests run one lock program on two engines
// — the unwired ticking reference (no lock-word ops: hand-written ticking
// loops mirroring the acquire and wait protocols run instead of
// AcquireWord and WaitWord, so every woken thread resumes to run its own
// poll and every wake is eager) and the wired engine (SetLockWordOps, so
// AcquireWord and WaitWord delegate their protocols, wake-time polls
// included, to the event loop, a release queues only the acquirer that
// can win, and the word's next store settles the rest) — and require
// every acquire cycle, wait verdict, per-thread ParkSkipped total, doom
// and the makespan to match exactly. Both engines carry a tick hook that
// sees every tick; the wired engine's hook stream must be the reference's
// minus the losing steps the herd settled in closed form. A third run,
// the wired engine with delegation off, executes the engine's protocol
// steps in the coroutines and must match the reference tick for tick. The
// lock word lives in plain test state; each run's bodies and ops close
// over their own copy. The word also models strong isolation: a
// transaction may write it (opTxWrite), and the next other access to it
// dooms that transaction, at a position every engine must agree on.

const (
	taLoad   = 2           // DirectLoad of the default cost model
	taCAS    = 25          // LockOp
	taPeriod = 25 + taLoad // poll period: SpinQuantum + DirectLoad
)

// A lock program is a byte string of (op, arg) pairs dealt round-robin to
// the threads: pair k is the next step of thread k mod nThreads.
const (
	opAcquire     = iota // acquire the lock (unless already held), then Tick(arg)
	opRelease            // release the lock (if held)
	opWaitBounded        // bounded wait for the lock to be free, budget 1 + arg%6 polls
	opTick               // Tick(1 + arg)
	opTxWrite            // spinlock.AcquireTx's multi-CAS: load at Tick(1 + arg%8), write a free word at Tick(1), commit at Tick(1 + arg>>3), each unless doomed
	opWait               // unbounded wait for the lock to be free (unless held), then Tick(arg)
	numLockOps
)

// lockTrace is everything a lock program lets an observer see.
type lockTrace struct {
	hooks    []uint64    // the engine's complete tick-hook stream
	acqs     [][]uint64  // per thread: acquire-completion clocks
	waits    [][]uint64  // per thread: wait verdict clocks, +1<<63 when a bounded wait gave up
	skipped  []uint64    // per thread: ParkSkipped after the run
	dooms    [][3]uint64 // (cycle, accessing thread, victim) of every access that doomed a transaction
	makespan uint64
	counters Counters
	mats     int    // transactional writes that found acquirers deferred
	deferred uint64 // acquirers the releases deferred
}

// runLockProgram runs prog on nThreads threads contending for one lock, on
// the wired engine, with delegation on or off, or the ticking reference,
// checking the schedule-state invariants at every tick. A thread still
// holding the lock when its steps run out releases it, so every program
// terminates.
func runLockProgram(t *testing.T, nThreads int, prog []byte, wired, delegation bool) lockTrace {
	t.Helper()
	eng := parkEngine(t, nThreads)
	eng.SetDelegation(delegation)
	const key = 99
	var word uint64
	inTx := make([]bool, nThreads) // threads whose transaction has read the word
	txWriter := -1                 // the one of them that has also written it, or -1
	untouched := false             // no store or transactional write since the last release
	tr := lockTrace{acqs: make([][]uint64, nThreads), waits: make([][]uint64, nThreads)}
	// access is the strong isolation of an access to the word by hw: it
	// dooms another thread's transactional write, and a write (a store or
	// a transactional write) dooms another thread's transactional read.
	access := func(hw int, write bool) {
		for v, live := range inTx {
			if live && v != hw && (write || v == txWriter) {
				tr.dooms = append(tr.dooms, [3]uint64{eng.Thread(hw).Clock(), uint64(hw), uint64(v)})
				inTx[v] = false
				if v == txWriter {
					txWriter = -1
				}
			}
		}
	}
	load := func(hw int) uint64 { access(hw, false); return word }
	store := func(hw int, v uint64) { access(hw, true); word, untouched = v, v == 0 }
	if wired {
		eng.SetLockWordOps(
			func(hw int, _ uint64) uint64 { return load(hw) },
			func(hw int, _ uint64, v uint64) { store(hw, v) })
	}
	verify := watchStates(t, eng, func(now uint64) {
		tr.hooks = append(tr.hooks, now)
		if len(tr.hooks) > 1<<22 { // a broken protocol can spin forever
			panic(fmt.Sprintf("runLockProgram: runaway schedule at cycle %d", now))
		}
	}, func(uint64) bool { return untouched })
	bodies := make([]func(*Ctx), nThreads)
	for i := range bodies {
		id := i
		bodies[i] = func(c *Ctx) {
			owner := uint64(id) + 1
			held := false
			acquired := func() {
				held = true
				tr.acqs[id] = append(tr.acqs[id], c.Clock())
			}
			release := func() {
				c.Tick(taCAS)
				store(id, 0)
				c.WakeKey(key)
				tr.deferred += uint64(eng.herd.Count())
				held = false
			}
			for k := 2 * id; k+1 < len(prog); k += 2 * nThreads {
				op, arg := prog[k]%numLockOps, uint64(prog[k+1])
				switch {
				case op == opAcquire && !held:
					acquireWord(c, key, owner, func() uint64 { return load(id) }, func(v uint64) { store(id, v) })
					acquired()
					c.Tick(arg)
				case op == opRelease && held:
					release()
				case op == opWaitBounded:
					budget := 1 + int(arg%6)
					var free bool
					var at uint64
					if wired {
						free, at = c.WaitWord(key, budget), c.Clock()
					} else {
						free, at = boundedWait(c, key, func() uint64 { return load(id) }, budget)
					}
					if !free {
						at |= 1 << 63
					}
					tr.waits[id] = append(tr.waits[id], at)
				case op == opWait && !held:
					if wired {
						c.WaitWord(key, -1)
					} else {
						spinWait(c, key, func() uint64 { return load(id) })
					}
					tr.waits[id] = append(tr.waits[id], c.Clock())
					c.Tick(arg)
				case op == opTick:
					c.Tick(1 + arg)
				case op == opTxWrite && !held:
					// spinlock.AcquireTx: the load aborts on a held word;
					// the write, unless something doomed the transaction
					// since, registers and materializes any deferred
					// acquirer; the commit, unless doomed, publishes it.
					c.Tick(1 + arg%8)
					access(id, false)
					if word != 0 {
						break
					}
					inTx[id] = true
					if c.Tick(1); !inTx[id] {
						break
					}
					access(id, true)
					txWriter, untouched = id, false
					if !eng.herd.Empty() {
						tr.mats++
					}
					c.MaterializeHerd(key)
					if c.Tick(1 + arg>>3); inTx[id] {
						inTx[id], txWriter, word = false, -1, owner
						acquired()
					}
				}
			}
			if held {
				release()
			}
		}
	}
	var err error
	if tr.makespan, err = eng.Run(bodies); err != nil {
		t.Fatalf("wired=%v delegation=%v: %v", wired, delegation, err)
	}
	verify()
	for i := range nThreads {
		tr.skipped = append(tr.skipped, eng.Thread(i).ParkSkipped())
	}
	tr.counters = eng.Counters()
	return tr
}

// checkLockProtocolEquivalence fails unless the wired engine's observable
// streams are the ticking reference's. Its hook stream must be an in-order
// subsequence of the reference's, missing only deferred acquirers' steps:
// at least the woken poll of each settled one (two hook calls, the pop and
// the poll's tick), and at most that poll, a CAS and a re-poll of each
// deferred one — none where no release deferred an acquirer. It returns
// the wired run.
func checkLockProtocolEquivalence(t *testing.T, nThreads int, prog []byte) lockTrace {
	t.Helper()
	ref := runLockProgram(t, nThreads, prog, false, true)
	if own := runLockProgram(t, nThreads, prog, true, false); !sameLockStreams(own, ref) || own.counters.Steps != 0 {
		t.Fatalf("n=%d prog=%v: the coroutine executor's streams (%d hooks, makespan %d, %d steps) are not the reference's (%d hooks, makespan %d)",
			nThreads, prog, len(own.hooks), own.makespan, own.counters.Steps, len(ref.hooks), ref.makespan)
	}
	got := runLockProgram(t, nThreads, prog, true, true)
	lo, hi := 2*got.counters.Settled, 4*got.deferred
	if missing := uint64(len(ref.hooks) - len(got.hooks)); !isSubsequence(got.hooks, ref.hooks) || missing < lo || missing > hi {
		t.Fatalf("n=%d prog=%v: hook stream of %d ticks is not the reference's %d less %d to %d",
			nThreads, prog, len(got.hooks), len(ref.hooks), lo, hi)
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
	if !slices.Equal(ref.skipped, got.skipped) {
		t.Fatalf("n=%d prog=%v: ParkSkipped %v (ticking) vs %v (wired)", nThreads, prog, ref.skipped, got.skipped)
	}
	if !slices.Equal(ref.dooms, got.dooms) {
		t.Fatalf("n=%d prog=%v: dooms %v (ticking) vs %v (wired)", nThreads, prog, ref.dooms, got.dooms)
	}
	return got
}

// sameLockStreams reports whether two runs gave identical streams, the
// tick hook's included.
func sameLockStreams(a, b lockTrace) bool {
	eq := slices.Equal[[]uint64]
	return a.makespan == b.makespan && eq(a.hooks, b.hooks) && eq(a.skipped, b.skipped) &&
		slices.EqualFunc(a.acqs, b.acqs, eq) && slices.EqualFunc(a.waits, b.waits, eq) && slices.Equal(a.dooms, b.dooms)
}

// isSubsequence reports whether sub is seq with some elements left out,
// the rest in order.
func isSubsequence(sub, seq []uint64) bool {
	for _, v := range seq {
		if len(sub) > 0 && sub[0] == v {
			sub = sub[1:]
		}
	}
	return len(sub) == 0
}

// contentionShape is a fixed scenario: n contenders, each acquiring,
// holding (a per-thread duration, or nothing at all) and releasing the
// lock rounds times. A zero hold releases the word LockOp after taking
// it, the earliest a holder can, so deferred acquirers' steps straddle
// the settling bound.
type contentionShape struct {
	n, rounds int
	zeroHold  bool
}

// contentionShapes are the scenarios delegated acquire shipped with;
// herdShapes add the zero holds and the wide herds of the lazy path.
var (
	contentionShapes = []contentionShape{{1, 3, false}, {2, 3, false}, {3, 4, false}, {8, 3, false}}
	herdShapes       = []contentionShape{{8, 3, true}, {32, 2, false}, {128, 2, true}}
)

// program encodes the shape as a lock program.
func (s contentionShape) program() []byte {
	var prog []byte
	for r := 0; r < s.rounds; r++ {
		for id := 0; id < s.n; id++ {
			hold := byte(5 + 11*id)
			if s.zeroHold {
				hold = 0
			}
			prog = append(prog, opAcquire, hold)
		}
		for id := 0; id < s.n; id++ {
			prog = append(prog, opRelease, 0)
		}
	}
	return prog
}

// TestDelegatedAcquireEquivalence: for several contention shapes, the
// delegated protocol's observable streams must be identical to the
// ticking loop's, and from three contenders on the wired engine must
// settle deferred acquirers rather than deliver their steps.
func TestDelegatedAcquireEquivalence(t *testing.T) {
	for _, shape := range append(contentionShapes, herdShapes...) {
		got := checkLockProtocolEquivalence(t, shape.n, shape.program())
		if shape.n >= 3 && got.counters.Settled == 0 {
			t.Errorf("%+v: the wired engine settled no deferred acquirer", shape)
		}
	}
}

// interleave deals per-thread op lists into a lock program, padding
// threads whose list ran out with opTick pairs.
func interleave(ops [][]byte) []byte {
	var prog []byte
	for k := 0; ; k += 2 {
		more := false
		for _, o := range ops {
			if k+1 < len(o) {
				prog, more = append(prog, o[k], o[k+1]), true
			} else {
				prog = append(prog, opTick, 0)
			}
		}
		if !more {
			return prog[:len(prog)-2*len(ops)]
		}
	}
}

// herdTxWriteProgram: thread 0 holds the lock until cycle 252 while four
// acquirers park on it; thread 5's transaction writes the word at cycle
// 253 + txArg%8 + 1, after the release and before any acquirer's CAS, so
// some deferred acquirers have polled by then and some have not.
func herdTxWriteProgram(txArg byte) []byte {
	ops := [][]byte{{opAcquire, 200, opRelease, 0}}
	for id := 1; id <= 4; id++ {
		ops = append(ops, []byte{opTick, byte(3 * id), opAcquire, 5, opRelease, 0})
	}
	ops = append(ops, []byte{opTick, 250, opTxWrite, txArg, opAcquire, 1})
	return interleave(ops)
}

// TestLazyHerdMaterializes: a transactional write to the word in the
// middle of a deferred herd queues the herd where eager wakes had it, so
// every stream, dooms included, stays equal to the reference's.
func TestLazyHerdMaterializes(t *testing.T) {
	doomed := 0
	for arg := 0; arg < 256; arg += 3 {
		got := checkLockProtocolEquivalence(t, 6, herdTxWriteProgram(byte(arg)))
		if got.mats == 0 {
			t.Fatalf("txArg %d: the write found no deferred acquirer to materialize", arg)
		}
		if len(got.dooms) > 0 {
			doomed++
		}
	}
	if doomed == 0 {
		t.Fatal("no waiter's load ever doomed the transactional writer")
	}
}

// TestLazyHerdSettleBound: two acquirers park on a held word at every
// pair of poll phases, so after the release one wins and releases again
// with no hold, at the earliest cycle a holder can, while the other one's
// poll, CAS or re-poll lands on, just before or just after that release.
// Steps at or past it must be queued rather than settled.
func TestLazyHerdSettleBound(t *testing.T) {
	for a := byte(0); a < taPeriod; a++ {
		for b := byte(0); b < taPeriod; b++ {
			checkLockProtocolEquivalence(t, 3, interleave([][]byte{
				{opAcquire, 100, opRelease, 0},
				{opTick, 30 + a, opAcquire, 0, opRelease, 0},
				{opTick, 30 + b, opAcquire, 0, opRelease, 0},
			}))
		}
	}
}

// FuzzLockProtocolEquivalence extends the fixed shapes to arbitrary lock
// programs: 1 to 128 threads, random hold times, acquires racing bounded
// and unbounded waits, releases landing on and between poll boundaries,
// back-to-back releases and transactional writes in the middle of a herd.
// The engine-side shortcuts (the acquire and wait continuations, their
// woken polls included, and the lazy herd) must be invisible for every one
// of them.
func FuzzLockProtocolEquivalence(f *testing.F) {
	for _, shape := range contentionShapes {
		f.Add(uint8(shape.n-1), shape.program())
	}
	// Bounded waiters against a holder, and a waiter that outlives its budget.
	f.Add(uint8(2), []byte{opAcquire, 200, opWaitBounded, 3, opWaitBounded, 0, opRelease, 0, opAcquire, 9, opTick, 40})
	f.Add(uint8(1), []byte{opAcquire, 255, opWaitBounded, 0, opTick, 255, opWaitBounded, 5, opRelease, 0, opAcquire, 0})
	// A bounded wait (budget 5, first poll at cycle 33) on a word held
	// since cycle 27 and released at cycle 52 + hold: the releases sweep
	// across poll boundaries and past the wait's final one.
	for hold := 0; hold < 256; hold += 13 {
		f.Add(uint8(1), []byte{opAcquire, byte(hold), opTick, 30, opRelease, 0, opWaitBounded, 4})
	}
	// The lazy herd's shapes, then back-to-back releases: every thread
	// re-acquires the moment it releases, with no hold, so each release
	// comes LockOp after the store that settled the previous herd.
	for _, shape := range herdShapes {
		f.Add(uint8(shape.n-1), shape.program())
	}
	for _, shape := range []struct{ n, rounds int }{{4, 4}, {16, 4}, {64, 2}} {
		ops := make([][]byte, shape.n)
		for id := range ops {
			for r := 0; r < shape.rounds; r++ {
				ops[id] = append(ops[id], opAcquire, 0, opRelease, 0)
			}
		}
		f.Add(uint8(shape.n-1), interleave(ops))
	}
	// A transaction writes the word in the middle of a herd.
	for arg := byte(0); arg < 8; arg++ {
		f.Add(uint8(5), herdTxWriteProgram(arg))
	}
	// A bounded wait (budget 1 + b, first poll at cycle 33, final poll
	// boundary 33 + 27·(1 + b)) on a word its holder releases one cycle
	// before, at, or one cycle after that deadline, with the waiter after
	// and before the releaser in the id tie-break.
	for b := byte(0); b < 6; b++ {
		for _, d := range []int{-1, 0, 1} {
			hold := byte(27*(1+int(b)) - 19 + d)
			f.Add(uint8(1), []byte{opAcquire, hold, opTick, 30, opRelease, 0, opWaitBounded, b})
			f.Add(uint8(1), []byte{opTick, 30, opAcquire, hold, opWaitBounded, b, opRelease, 0})
		}
	}
	// Waiters parked beside a herd of acquirers: the release wakes them
	// eagerly while only one acquirer is queued, so their polls land
	// around the lazy handoff and the winner's settling store.
	for k := byte(0); k < 9; k++ {
		f.Add(uint8(7), waitHerdProgram(k))
	}
	f.Fuzz(func(t *testing.T, threads uint8, prog []byte) {
		// 1024 bytes fits the widest seed: 128 threads, two rounds.
		if len(prog) > 1024 {
			t.Skip("program too long")
		}
		checkLockProtocolEquivalence(t, 1+int(threads%128), prog)
	})
}

// TestTxReadDoomedCorpus replays the checked-in fuzz input on which a
// transaction could once write a lock word stored after its load. Its op
// bytes are all below opWait, so it decodes to the same program under
// every op count since opTxWrite, and its four dooms stay where they were
// found.
func TestTxReadDoomedCorpus(t *testing.T) {
	b, err := os.ReadFile("testdata/fuzz/FuzzLockProtocolEquivalence/tx-read-doomed-16")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	threads, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
	prog, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err1 != nil || err2 != nil || len(threads) != 1 {
		t.Fatalf("malformed corpus file: %v, %v", err1, err2)
	}
	for k := 0; k < len(prog); k += 2 {
		if prog[k] >= opWait {
			t.Fatalf("op byte %d at %d decodes differently since opWait was added", prog[k], k)
		}
	}
	got := checkLockProtocolEquivalence(t, 1+int(threads[0]%128), []byte(prog))
	if want := [][3]uint64{{8, 0, 7}, {11, 7, 0}, {27, 2, 0}, {241, 5, 11}}; !slices.Equal(got.dooms, want) {
		t.Fatalf("dooms %v, want %v", got.dooms, want)
	}
}

// waitHerdProgram: thread 0 holds the lock until cycle 252 while four
// acquirers and three waiters — one unbounded, then bounded — park on it,
// the waiters at poll phases shifted by k.
func waitHerdProgram(k byte) []byte {
	ops := [][]byte{{opAcquire, 200, opRelease, 0}}
	for id := 1; id <= 4; id++ {
		ops = append(ops, []byte{opTick, byte(3 * id), opAcquire, 5, opRelease, 0})
	}
	for id := 5; id <= 7; id++ {
		ops = append(ops, []byte{opTick, 40 + k + byte(id), opWait, k, opWaitBounded, byte(id)})
	}
	return interleave(ops)
}

// TestWaitContinuationEquivalence: the fixed wait shapes — every bounded
// budget against releases around its deadline, and waiters beside a lazy
// herd — give the reference's streams on the wired engine.
func TestWaitContinuationEquivalence(t *testing.T) {
	for b := byte(0); b < 6; b++ {
		for d := -1; d <= 1; d++ {
			hold := byte(27*(1+int(b)) - 19 + d)
			checkLockProtocolEquivalence(t, 2, []byte{opAcquire, hold, opTick, 30, opRelease, 0, opWaitBounded, b})
			checkLockProtocolEquivalence(t, 2, []byte{opTick, 30, opAcquire, hold, opWaitBounded, b, opRelease, 0})
		}
	}
	for k := byte(0); k < 9; k++ {
		if got := checkLockProtocolEquivalence(t, 8, waitHerdProgram(k)); got.counters.Settled == 0 {
			t.Errorf("k=%d: the wired engine settled no deferred acquirer", k)
		}
	}
}

// acquireWord takes the lock word through AcquireWord or, on an engine
// with no lock-word ops, through a hand-written loop of its protocol:
// poll tick + load, CAS tick + load-and-store, park on busy.
func acquireWord(c *Ctx, key, owner uint64, load func() uint64, store func(uint64)) {
	if c.eng.lockLoad != nil {
		c.AcquireWord(key, owner)
		return
	}
	for {
		c.Tick(taLoad)
		if load() == 0 {
			c.Tick(taCAS)
			if load() != 0 {
				continue
			}
			store(owner)
			return
		}
		c.ParkOnWord(key, taPeriod, taLoad, 0)
	}
}

// spinWait mirrors WaitWord's unbounded protocol: poll, park unbounded on
// busy.
func spinWait(c *Ctx, key uint64, load func() uint64) {
	for {
		c.Tick(taLoad)
		if load() == 0 {
			return
		}
		c.ParkOnWord(key, taPeriod, taLoad, 0)
	}
}

// boundedWait mirrors WaitWord's bounded protocol: poll, park bounded on
// busy, give up when the budget runs out. Returns whether the word was
// observed free and the clock of the deciding poll.
func boundedWait(c *Ctx, key uint64, load func() uint64, maxSpins int) (bool, uint64) {
	for i := 0; ; {
		c.Tick(taLoad)
		if load() == 0 {
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
