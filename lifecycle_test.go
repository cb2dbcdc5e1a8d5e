package seer_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"seer"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
)

// TestRuntimeLocksAreTheFreedRange: the words Run frees before it starts
// are exactly the runtime's lock lines — the SGL, SCM's auxiliary lock,
// ATS's dispatch lock and Seer's transaction, core and object locks — one
// lock word at the start of each line, and nothing else.
func TestRuntimeLocksAreTheFreedRange(t *testing.T) {
	kinds := []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicyBackoff,
		seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer, seer.PolicyPhased, seer.PolicySeq}
	for _, objLocks := range []bool{false, true} {
		for _, kind := range kinds {
			cfg := seer.DefaultConfig()
			cfg.Policy, cfg.NumAtomicBlocks, cfg.Seer.ObjLocks = kind, 3, objLocks
			sys, err := seer.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			locks := sys.RuntimeLocks()
			slices.Sort(locks)
			lo, hi := sys.LockRange()
			if want := lo + seer.Addr(len(locks)*mem.LineWords); hi != want {
				t.Errorf("%s (objlocks %v): Run frees [%d, %d), the %d locks end at %d", kind, objLocks, lo, hi, len(locks), want)
			}
			for i, a := range locks {
				if want := lo + seer.Addr(i*mem.LineWords); a != want {
					t.Errorf("%s (objlocks %v): lock %d at word %d, want %d", kind, objLocks, i, a, want)
				}
			}
		}
	}
}

// TestRunAfterFailedRun: a System stays reusable after a Run that fails
// while a thread holds a runtime lock. Run 1 ends either in a worker's
// panic on the fall-back path, under the single-global lock, or in a
// MaxCycles stop with some runtime lock word still held; Run 2 on the same
// System must then commit every one of its operations.
func TestRunAfterFailedRun(t *testing.T) {
	const threads, run2Ops = 4, 10
	kinds := []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicyATS,
		seer.PolicySeer, seer.PolicyPhased}
	build := func(t *testing.T, kind seer.PolicyKind, maxCycles uint64) (*seer.System, seer.Addr) {
		cfg := seer.DefaultConfig()
		cfg.Threads, cfg.PhysCores, cfg.Policy, cfg.MaxCycles = threads, threads/2, kind, maxCycles
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, sys.AllocAligned(1)
	}
	// counter increments the shared counter ops times per worker, with a
	// long transaction so that attempts conflict and fall back; onSGL runs
	// when a body is on the fall-back path.
	counter := func(c seer.Addr, ops int, onSGL func()) []seer.Worker {
		workers := make([]seer.Worker, threads)
		for i := range workers {
			workers[i] = func(th *seer.Thread) {
				for range ops {
					th.Atomic(0, func(a seer.Access) {
						if _, hw := a.(*htm.Tx); !hw && onSGL != nil {
							onSGL()
						}
						v := a.Load(c)
						a.Work(200)
						a.Store(c, v+1)
					})
					th.Work(20)
				}
			}
		}
		return workers
	}
	run2 := func(t *testing.T, sys *seer.System, c seer.Addr) {
		before := sys.Peek(c)
		rep, err := sys.Run(counter(c, run2Ops, nil))
		if err != nil {
			t.Fatalf("Run 2 after a failed Run: %v", err)
		}
		if got := sys.Peek(c) - before; got != threads*run2Ops || rep.Commits() != threads*run2Ops {
			t.Fatalf("Run 2 added %d and committed %d, want %d", got, rep.Commits(), threads*run2Ops)
		}
	}
	held := func(sys *seer.System) bool {
		return slices.ContainsFunc(sys.RuntimeLocks(), func(a seer.Addr) bool { return sys.Peek(a) != 0 })
	}
	for _, kind := range kinds {
		t.Run(string(kind)+"/panic", func(t *testing.T) {
			sys, c := build(t, kind, 0)
			_, err := sys.Run(counter(c, 200, func() { panic("body failed under the SGL") }))
			if err == nil || !strings.Contains(fmt.Sprint(err), "body failed under the SGL") {
				t.Fatalf("Run 1 did not fail on the fall-back path: %v", err)
			}
			run2(t, sys, c)
		})
		t.Run(string(kind)+"/maxcycles", func(t *testing.T) {
			// The first cap, in steps of 1 009 cycles, at which the stop
			// leaves a runtime lock held.
			for maxCycles := uint64(40_000); maxCycles < 80_000; maxCycles += 1009 {
				sys, c := build(t, kind, maxCycles)
				if _, err := sys.Run(counter(c, 1000, nil)); !errors.Is(err, machine.ErrMaxCycles) {
					t.Fatalf("Run 1 at MaxCycles %d: %v, want ErrMaxCycles", maxCycles, err)
				}
				if held(sys) {
					run2(t, sys, c)
					return
				}
			}
			t.Fatal("no MaxCycles stop left a runtime lock held")
		})
	}
}
