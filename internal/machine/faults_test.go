package machine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"seer/internal/topology"
)

// The fault-table cases drive a wired engine into an error verdict at a
// chosen kind of event, then run a probe program on the same engine. Its
// hook stream, makespan and Counters() delta must equal a fresh engine's:
// the error path left no state behind.

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
// counters it added.
func probe(t *testing.T, e *Engine, word *uint64) (hooks []uint64, makespan uint64, delta Counters) {
	t.Helper()
	*word = 0
	before := e.Counters()
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
	after := e.Counters()
	delta = Counters{
		Resumes: after.Resumes - before.Resumes,
		Steps:   after.Steps - before.Steps,
		Replays: after.Replays - before.Replays,
		Settled: after.Settled - before.Settled,
	}
	return hooks, makespan, delta
}

// wordFree is checkStates' untouched for engines whose lock word is *word
// and whose every release stores 0 and wakes before its next tick: a
// deferred acquirer's word is then unstored since the release exactly
// while it reads 0, since the next store is the winning CAS, which settles
// the herd before any tick.
func wordFree(word *uint64) func(uint64) bool {
	return func(uint64) bool { return *word == 0 }
}

// TestFaultsLeaveEngineReusable covers the fault-table rows the engine's
// states add: ErrMaxCycles delivered on a delegated-acquire tick, on a
// woken acquirer's poll, while a thread is replaying its journal and while
// a release has acquirers deferred, and ErrDeadlock reached after a
// bounded waiter's deadline fired.
func TestFaultsLeaveEngineReusable(t *testing.T) {
	deferred := false // the lazy row's release left acquirers deferred
	for _, fc := range []struct {
		name string
		spec int
		want error
		// unwired reruns the failing program on an engine with no
		// lock-word ops, where every wake is eager; its verdict and
		// makespan must be the same.
		unwired bool
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
		reached: func(e *Engine, now uint64) bool { return now > faultBudget && e.threads[0].state == stepping },
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
		reached: func(e *Engine, now uint64) bool { return now > faultBudget && e.threads[0].state == replaying },
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
			return w.state == parked && w.parkPolls > 0 && now == w.parkDeadline
		},
	}} {
		t.Run(fc.name, func(t *testing.T) {
			var word uint64
			e := faultEngine(t, fc.spec, &word)
			hit := false
			verify := watchStates(t, e, func(now uint64) { hit = hit || fc.reached(e, now) }, wordFree(&word))
			makespan, err := e.Run(fc.bodies(&word))
			if !errors.Is(err, fc.want) {
				t.Fatalf("err = %v, want %v", err, fc.want)
			}
			verify()
			if err := checkStates(e, nil); err != nil {
				t.Fatalf("after the fault: %v", err)
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
			if !hit {
				t.Fatal("the run never reached the event the case is about")
			}
			hooks, makespan, delta := probe(t, e, &word)
			var freshWord uint64
			wantHooks, wantMakespan, wantDelta := probe(t, faultEngine(t, fc.spec, &freshWord), &freshWord)
			if !slices.Equal(hooks, wantHooks) || makespan != wantMakespan || delta != wantDelta {
				t.Fatalf("probe after the fault: makespan %d, %d hooks, counters %+v; on a fresh engine: %d, %d, %+v",
					makespan, len(hooks), delta, wantMakespan, len(wantHooks), wantDelta)
			}
			if delta.Steps == 0 || delta.Settled == 0 || (fc.spec > 0 && delta.Replays == 0) {
				t.Fatalf("probe counters %+v: the probe missed a state", delta)
			}
		})
	}
}
