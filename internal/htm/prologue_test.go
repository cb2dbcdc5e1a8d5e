package htm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/topology"
)

// The prologue differential runs one random attempt program two ways: every
// attempt through RunSubscribed, whose begin tick, subscription load and
// abort epilogue run engine-side, and through Run/RunSW with the
// subscription written as body code, the way the policies subscribed
// before the prologue existed. Everything an observer can see must match.

// heldCode is the explicit-abort code of an attempt that finds the lock
// word held.
const heldCode = 0xFF

// attemptProgram is one random program: threads hardware threads, of which
// thread 0 toggles the lock word when there are two or more, and every
// other thread runs attempts of random bodies, hardware or software, with
// random pure work in between.
type attemptProgram struct {
	threads   int
	attempts  int     // per thread
	spurious  float64 // htm.Config.SpuriousProb
	readLines int     // htm.Config.ReadSetLines
	quantum   int     // machine.Config.SpecQuantum
	hook      bool    // record the tick-hook stream
	seed      uint64
}

func (p attemptProgram) String() string {
	return fmt.Sprintf("threads=%d attempts=%d spurious=%.3f readLines=%d quantum=%d hook=%v seed=%d",
		p.threads, p.attempts, p.spurious, p.readLines, p.quantum, p.hook, p.seed)
}

// attemptTrace is everything the program lets an observer see.
type attemptTrace struct {
	statuses [][]Status // per thread, per attempt
	clocks   []uint64   // per thread, after the run
	hooks    []uint64
	dooms    [][4]uint64 // victim, aborter, line, victim's clock
	makespan uint64
	steps    uint64 // engine continuation steps (machine.Counters.Steps)
}

// bodyOp is one access of a planned attempt body.
type bodyOp struct {
	kind uint8 // 0 load, 1 store, 2 work
	line int
	n    uint64
}

func runAttemptProgram(t *testing.T, p attemptProgram, prologue, delegation bool) attemptTrace {
	t.Helper()
	cfg := machine.Config{
		Topo:        topology.SMT2((p.threads + 1) / 2),
		Seed:        int64(p.seed),
		Cost:        machine.DefaultCostModel(),
		SpecQuantum: p.quantum,
	}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetDelegation(delegation)
	m := mem.New(1 << 12)
	u := New(m, cfg, Config{ReadSetLines: p.readLines, WriteSetLines: p.readLines, SpuriousProb: p.spurious})
	const dataLines = 6
	lock := m.AllocLines(1)
	data := m.AllocLines(dataLines)
	tr := attemptTrace{statuses: make([][]Status, p.threads)}
	if p.hook {
		eng.SetTickHook(func(now uint64) uint64 { tr.hooks = append(tr.hooks, now); return 0 })
	}
	u.SetDoomHook(func(victim, aborter int, ln mem.Line) {
		tr.dooms = append(tr.dooms, [4]uint64{uint64(victim), uint64(aborter), uint64(ln), eng.Thread(victim).Clock()})
	})
	cost := machine.DefaultCostModel()
	bodies := make([]func(*machine.Ctx), p.threads)
	for i := range bodies {
		id := i
		rng := rand.New(rand.NewPCG(p.seed, uint64(id)))
		if id == 0 && p.threads > 1 {
			bodies[0] = func(c *machine.Ctx) {
				for k := 0; k < p.attempts; k++ {
					c.Tick(1 + rng.Uint64N(97))
					c.Tick(cost.DirectStore)
					m.DirectStore(0, lock, 1)
					c.Tick(1 + rng.Uint64N(61))
					c.Tick(cost.DirectStore)
					m.DirectStore(0, lock, 0)
				}
			}
			continue
		}
		bodies[i] = func(c *machine.Ctx) {
			var plan []bodyOp
			run := func(a mem.Access) {
				for _, op := range plan {
					addr := data + mem.Addr(op.line*mem.LineWords)
					switch op.kind {
					case 0:
						a.Load(addr)
					case 1:
						a.Store(addr, op.n)
					default:
						a.Work(op.n)
					}
				}
			}
			for k := 0; k < p.attempts; k++ {
				c.Work(rng.Uint64N(4))
				plan = plan[:0]
				for n := 1 + rng.IntN(5); n > 0; n-- {
					plan = append(plan, bodyOp{kind: uint8(rng.IntN(3)), line: rng.IntN(dataLines), n: 1 + rng.Uint64N(9)})
				}
				sw := rng.IntN(4) == 0
				var st Status
				if prologue {
					st = u.RunSubscribed(c, sw, lock, heldCode, run)
				} else {
					runner := u.Run
					if sw {
						runner = u.RunSW
					}
					st = runner(c, func(tx *Tx) {
						if tx.Load(lock) != 0 {
							tx.Abort(heldCode)
						}
						run(tx)
					})
				}
				tr.statuses[id] = append(tr.statuses[id], st)
			}
		}
	}
	if tr.makespan, err = eng.Run(bodies); err != nil {
		t.Fatalf("%v (prologue %v): %v", p, prologue, err)
	}
	for i := range p.threads {
		tr.clocks = append(tr.clocks, eng.Thread(i).Clock())
	}
	tr.steps = eng.Counters().Steps
	return tr
}

// TestSubscribedPrologueEquivalence: random attempt programs — 1 to 128
// threads, a holder toggling the lock word, spurious aborts up to 0.2, read
// budgets of 1 to 4 lines shared by hyperthread siblings, speculative
// quanta on and off, the tick hook on and off — give equal status
// sequences, clocks, tick-hook streams and doom-hook calls through the
// engine-side prologue, through the same prologue executed by the
// coroutine (delegation off) and through the subscription as body code.
func TestSubscribedPrologueEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(35, 1))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	var steps, held, spurious uint64
	for trial := 0; trial < trials; trial++ {
		threads := 1 + rng.IntN(8)
		if trial%4 == 0 {
			threads = 1 + rng.IntN(128)
		}
		p := attemptProgram{
			threads:   threads,
			attempts:  4 + rng.IntN(20),
			spurious:  []float64{0, 0.01, 0.2}[rng.IntN(3)] * rng.Float64(),
			readLines: 1 + rng.IntN(4),
			quantum:   []int{0, 16}[rng.IntN(2)],
			hook:      rng.IntN(2) == 0,
			seed:      rng.Uint64(),
		}
		want := runAttemptProgram(t, p, false, true)
		got := runAttemptProgram(t, p, true, true)
		for _, got := range []attemptTrace{got, runAttemptProgram(t, p, true, false)} {
			for id := range want.statuses {
				if !slices.Equal(got.statuses[id], want.statuses[id]) {
					t.Fatalf("%v: thread %d statuses %v (prologue) vs %v (body code)", p, id, got.statuses[id], want.statuses[id])
				}
			}
			switch {
			case got.makespan != want.makespan || !slices.Equal(got.clocks, want.clocks):
				t.Fatalf("%v: clocks %v (prologue) vs %v (body code)", p, got.clocks, want.clocks)
			case !slices.Equal(got.hooks, want.hooks):
				t.Fatalf("%v: tick-hook streams differ (%d vs %d hooks)", p, len(got.hooks), len(want.hooks))
			case !slices.Equal(got.dooms, want.dooms):
				t.Fatalf("%v: doom-hook calls %v (prologue) vs %v (body code)", p, got.dooms, want.dooms)
			}
		}
		steps += got.steps
		for _, sts := range got.statuses {
			for _, st := range sts {
				if st.ExplicitCode() == heldCode {
					held++
				} else if st&BitSpurious != 0 {
					spurious++
				}
			}
		}
	}
	// The programs must reach what they are for: the loop running prologue
	// ticks, attempts finding the word held, and spurious aborts.
	if steps == 0 || held == 0 || spurious == 0 {
		t.Errorf("coverage: %d engine steps, %d held aborts, %d spurious aborts", steps, held, spurious)
	}
}
