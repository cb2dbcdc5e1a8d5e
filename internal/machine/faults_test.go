package machine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"seer/internal/topology"
)

// The fault-table cases drive a wired engine into an error verdict at a
// chosen kind of event, then run a probe program on the same engine. Its
// hook stream, makespan and Counters() must equal a fresh engine's: the
// error path left no state behind.

const (
	faultKey    = 7
	faultBudget = 10000 // MaxCycles of every fault engine; the probe ends far below it
)

// faultEngine builds a four-thread engine wired like the runtime — with
// lock-word operations over *word — with the given quantum budget and
// MaxCycles faultBudget.
func faultEngine(t *testing.T, spec int, word *uint64) *Engine {
	t.Helper()
	e := mustEngine(t, Config{
		Topo: topology.MustFromFlat(4, 4), Seed: 1, MaxCycles: faultBudget,
		Cost: DefaultCostModel(), SpecQuantum: spec,
	})
	e.SetLockWordOps(
		func(int, uint64) uint64 { return *word },
		func(_ int, _ uint64, v uint64) { *word = v })
	return e
}

// probe runs a program on e that passes through every state — contended
// delegated acquires, their woken polls and deferred herds, bounded waits
// and quanta — and returns its hook stream, makespan and the engine
// counters of its Run.
func probe(t *testing.T, e *Engine, word *uint64) (hooks []uint64, makespan uint64, counts Counters) {
	t.Helper()
	*word = 0
	verify := watchStates(t, e, func(now uint64) {
		hooks = append(hooks, now)
		if len(hooks) > 1<<16 { // a broken engine can loop at one cycle forever
			panic(fmt.Sprintf("probe: runaway schedule at cycle %d", now))
		}
	}, wordFree(word))
	contender := func(c *Ctx) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 4; j++ {
				c.TickPure(9)
			}
			c.AcquireWord(faultKey, uint64(c.ID())+1)
			c.Tick(40)
			c.Tick(taCAS)
			*word = 0
			c.WakeKey(faultKey)
		}
	}
	waiter := func(c *Ctx) {
		for i := 0; i < 4; i++ {
			c.Tick(30)
			boundedWait(c, faultKey, func() uint64 { return *word }, 2)
		}
	}
	// The waiter runs on thread 0, where most faults leave their victim.
	makespan, err := e.Run([]func(*Ctx){waiter, contender, contender, contender})
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	verify()
	return hooks, makespan, e.Counters()
}

// wordFree is checkStates' untouched for engines whose lock word is *word
// and whose every release stores 0 and wakes before its next tick: a
// deferred acquirer's word is then unstored since the release exactly
// while it reads 0, since the next store is the winning CAS, which settles
// the herd before any tick.
func wordFree(word *uint64) func(uint64) bool {
	return func(uint64) bool { return *word == 0 }
}

// errFault is the panic value of the fault-table rows that panic.
var errFault = errors.New("fault-table panic")

// settledGoroutines waits briefly for goroutines that are exiting and
// returns the count once it is at most want, or the count at the deadline.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestFaultsLeaveEngineReusable covers the fault-table rows the engine's
// states add: ErrMaxCycles delivered on a delegated-acquire tick, on a
// woken acquirer's poll, while a thread is replaying its journal and while
// a release has acquirers deferred, and ErrDeadlock reached after a
// bounded waiter's deadline fired. Thread 0 is the host, whose body runs
// on the event loop's goroutine; in the delegated-acquire and replay rows
// it is the thread in trouble, and the rows after them add the host
// parked forever, panicking itself, and suspended while another body or
// the event loop itself panics. Every row must return its error text — the
// all-coroutine engine's, except for the loop's panics, which it did not
// recover — leave no goroutine behind, and fail the same way, at the same
// makespan, on a second Run.
func TestFaultsLeaveEngineReusable(t *testing.T) {
	deferred := false // the lazy row's release left acquirers deferred
	for _, fc := range []struct {
		name string
		spec int
		want error
		// text is the error's text when it is not want's own.
		text string
		// unwired reruns the failing program on an engine with no
		// lock-word ops, where every wake is eager; its verdict and
		// makespan must be the same.
		unwired bool
		// hookPanics makes the tick hook panic with errFault at the first
		// tick reached reports.
		hookPanics bool
		// bodies builds the failing program; word is the lock word.
		bodies func(word *uint64) []func(*Ctx)
		// reached reports, at a tick hook, that the run is at the event the
		// case is about.
		reached func(e *Engine, now uint64) bool
	}{{
		name: "MaxCycles on a delegated-acquire tick",
		want: ErrMaxCycles,
		bodies: func(*uint64) []func(*Ctx) {
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(faultBudget - 1); c.AcquireWord(faultKey, 1) },
				func(c *Ctx) { c.AcquireWord(faultKey, 2); c.Tick(2 * faultBudget) },
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now > faultBudget && e.host == e.threads[0] && e.threads[0].state == stepping
		},
	}, {
		name: "MaxCycles on the poll of a woken acquirer",
		want: ErrMaxCycles,
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 9 // held by a thread outside the program
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(taLoad); c.AcquireWord(faultKey, 1) },
				func(c *Ctx) { c.Tick(faultBudget - 5); c.WakeKey(faultKey); c.Tick(2 * faultBudget) },
			}
		},
		reached: func(e *Engine, now uint64) bool { return now > faultBudget && e.threads[0].state == polling },
	}, {
		name: "MaxCycles during a journal replay",
		spec: 8,
		want: ErrMaxCycles,
		bodies: func(*uint64) []func(*Ctx) {
			return []func(*Ctx){
				func(c *Ctx) {
					c.Tick(1)
					for i := 0; i < 8; i++ {
						c.TickPure(10) // the last four are journaled past thread 1's event
					}
					c.Tick(2 * faultBudget)
				},
				func(c *Ctx) { c.Tick(50); c.Tick(faultBudget + 50) },
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now > faultBudget && e.host == e.threads[0] && e.threads[0].state == replaying
		},
	}, {
		// Three acquirers park on a word held until cycle 9982. Their
		// boundaries after the release are 9996 (thread 1, queued),
		// 9998 (thread 3, deferred) and 10006 (thread 2: past the cap,
		// so queued). Eager wakes fail at thread 2's poll, before thread
		// 1's CAS at 10021.
		name:    "MaxCycles with acquirers deferred",
		want:    ErrMaxCycles,
		unwired: true,
		bodies: func(word *uint64) []func(*Ctx) {
			deferred = false
			load, store := func() uint64 { return *word }, func(v uint64) { *word = v }
			contender := func(d uint64) func(*Ctx) {
				return func(c *Ctx) { c.Tick(30 + d); acquireWord(c, faultKey, uint64(c.ID())+1, load, store) }
			}
			return []func(*Ctx){
				func(c *Ctx) {
					acquireWord(c, faultKey, 1, load, store)
					c.Tick(9930)
					c.Tick(taCAS)
					*word = 0
					c.WakeKey(faultKey)
					deferred = !c.eng.herd.Empty()
					c.Tick(2 * faultBudget)
				},
				contender(1), contender(11), contender(3),
			}
		},
		reached: func(*Engine, uint64) bool { return deferred },
	}, {
		name: "deadlock after a bounded deadline",
		want: ErrDeadlock,
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 9
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(5); c.ParkOnWord(faultKey+1, taPeriod, taLoad, 0) },
				func(c *Ctx) {
					if ok, _ := boundedWait(c, faultKey, func() uint64 { return *word }, 3); ok {
						panic("bounded wait saw a held word free")
					}
					c.ParkOnWord(faultKey+1, taPeriod, taLoad, 0)
				},
			}
		},
		reached: func(e *Engine, now uint64) bool {
			w := e.threads[1]
			return w.state == parked && w.parkDeadline != noDeadline && now == w.parkDeadline
		},
	}, {
		// The host's acquire parks on a word nobody releases; the other
		// bodies return, and the queue runs dry under the host.
		name: "deadlock with the host parked forever",
		want: ErrDeadlock,
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 9
			tick := func(c *Ctx) { c.Tick(uint64(40 * c.ID())); c.TickPure(7) }
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(3); c.AcquireWord(faultKey, 1) },
				tick, tick, tick,
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now >= 120 && e.host == e.threads[0] && e.threads[0].state == parked
		},
	}, {
		name: "the host panics",
		spec: 8,
		want: errFault,
		text: "machine: thread 0 panicked: fault-table panic",
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 9
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(100); panic(errFault) },
				func(c *Ctx) { c.Tick(1); c.AcquireWord(faultKey, 2) },
				func(c *Ctx) { c.Tick(1); c.WaitWord(faultKey, 20) },
				func(c *Ctx) {
					for {
						c.TickPure(9)
					}
				},
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now >= 100 && e.host == e.threads[0] && e.threads[1].state == parked
		},
	}, {
		name: "a body panics under the suspended host",
		want: errFault,
		text: "machine: thread 2 panicked: fault-table panic",
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 9
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(1); c.AcquireWord(faultKey, 1) },
				func(c *Ctx) { c.Tick(2); c.WaitWord(faultKey, -1) },
				func(c *Ctx) { c.Tick(60); panic(errFault) },
				func(c *Ctx) { c.Tick(2 * faultBudget) },
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now >= 60 && e.host == e.threads[0] && e.threads[0].state == parked
		},
	}, {
		name:       "the event loop panics under the suspended host",
		want:       errFault,
		text:       "machine: event loop panicked: fault-table panic",
		hookPanics: true,
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 0
			return []func(*Ctx){
				func(c *Ctx) {
					for i := 0; i < 40; i++ {
						c.Tick(5)
					}
				},
				func(c *Ctx) { c.Tick(3); c.AcquireWord(faultKey, 2); c.Tick(80) },
				func(c *Ctx) { c.Tick(4); c.AcquireWord(faultKey, 3); c.Tick(80) },
				func(c *Ctx) { c.Tick(2 * faultBudget) },
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now >= 50 && e.running == nil && e.host == e.threads[0]
		},
	}, {
		name:       "the event loop panics after the host returned",
		want:       errFault,
		text:       "machine: event loop panicked: fault-table panic",
		hookPanics: true,
		bodies: func(word *uint64) []func(*Ctx) {
			*word = 0
			return []func(*Ctx){
				func(c *Ctx) { c.Tick(20) },
				func(c *Ctx) { c.Tick(3); c.AcquireWord(faultKey, 2); c.Tick(80) },
				func(c *Ctx) { c.Tick(4); c.AcquireWord(faultKey, 3); c.Tick(80) },
				func(c *Ctx) { c.Tick(2 * faultBudget) },
			}
		},
		reached: func(e *Engine, now uint64) bool {
			return now >= 50 && e.running == nil && e.host == nil
		},
	}} {
		t.Run(fc.name, func(t *testing.T) {
			text := fc.text
			if text == "" {
				text = fc.want.Error()
			}
			var word uint64
			e := faultEngine(t, fc.spec, &word)
			hit := false
			verify := watchStates(t, e, func(now uint64) {
				if !hit && fc.reached(e, now) {
					hit = true
					if fc.hookPanics {
						panic(errFault)
					}
				}
			}, wordFree(&word))
			goroutines := runtime.NumGoroutine()
			makespan, err := e.Run(fc.bodies(&word))
			if !errors.Is(err, fc.want) || err.Error() != text {
				t.Fatalf("err = %v, want %q", err, text)
			}
			if n := settledGoroutines(goroutines); n > goroutines {
				t.Fatalf("%d goroutines before the run, %d after it", goroutines, n)
			}
			verify()
			if err := checkStates(e, nil); err != nil {
				t.Fatalf("after the fault: %v", err)
			}
			if !hit {
				t.Fatal("the run never reached the event the case is about")
			}
			hit = false
			again, err := e.Run(fc.bodies(&word))
			if err == nil || err.Error() != text || again != makespan || !hit {
				t.Fatalf("second run: makespan %d, %v; first: %d (reached again = %v)", again, err, makespan, hit)
			}
			if fc.unwired {
				var eagerWord uint64
				eager := faultEngine(t, fc.spec, &eagerWord)
				eager.SetLockWordOps(nil, nil)
				verify := watchStates(t, eager, nil, nil)
				wantMakespan, wantErr := eager.Run(fc.bodies(&eagerWord))
				verify()
				if !errors.Is(wantErr, fc.want) || makespan != wantMakespan {
					t.Fatalf("makespan %d; with eager wakes %d, %v", makespan, wantMakespan, wantErr)
				}
			}
			hooks, makespan, counts := probe(t, e, &word)
			var freshWord uint64
			wantHooks, wantMakespan, wantCounts := probe(t, faultEngine(t, fc.spec, &freshWord), &freshWord)
			if !slices.Equal(hooks, wantHooks) || makespan != wantMakespan || counts != wantCounts {
				t.Fatalf("probe after the fault: makespan %d, %d hooks, counters %+v; on a fresh engine: %d, %d, %+v",
					makespan, len(hooks), counts, wantMakespan, len(wantHooks), wantCounts)
			}
			if counts.Steps == 0 || counts.Settled == 0 || (fc.spec > 0 && counts.Replays == 0) {
				t.Fatalf("probe counters %+v: the probe missed a state", counts)
			}
		})
	}
}
