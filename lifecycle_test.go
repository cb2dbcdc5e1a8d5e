package seer_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"seer"
	"seer/internal/core"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/policy"
	"seer/internal/stats"
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
// System must then commit every one of its operations. Nothing the failed
// Run stamped may reach Run 2: under PhTM, Run 2 leaves GLOCK and makes
// transitions; under Seer, a narrower Run 2 on a block that Run 1 never
// ran learns nothing against Run 1's block and leaves no transaction
// announced.
func TestRunAfterFailedRun(t *testing.T) {
	const threads, run2Ops = 4, 10
	kinds := []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicyATS,
		seer.PolicySeer, seer.PolicyPhased}
	build := func(t *testing.T, kind seer.PolicyKind, blocks int, maxCycles uint64) (*seer.System, seer.Addr) {
		cfg := seer.DefaultConfig()
		cfg.Threads, cfg.PhysCores, cfg.Policy, cfg.MaxCycles = threads, threads/2, kind, maxCycles
		cfg.NumAtomicBlocks = blocks
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, sys.AllocAligned(1)
	}
	// counter increments the shared counter ops times per worker in block,
	// with a long transaction so that attempts conflict and fall back;
	// onSGL runs when a body is on the fall-back path.
	counter := func(c seer.Addr, block, ops int, onSGL func()) []seer.Worker {
		workers := make([]seer.Worker, threads)
		for i := range workers {
			workers[i] = func(th *seer.Thread) {
				for range ops {
					th.Atomic(block, func(a seer.Access) {
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
	// failed runs Run 1 on block 0 of a new System until it fails as how
	// says: a panic under the SGL, or the first MaxCycles cap, in steps of
	// 1 009 cycles, whose stop leaves behind what left reports.
	failed := func(t *testing.T, kind seer.PolicyKind, blocks int, how string, left func(*seer.System) bool) (*seer.System, seer.Addr) {
		if how == "panic" {
			sys, c := build(t, kind, blocks, 0)
			_, err := sys.Run(counter(c, 0, 200, func() { panic("body failed under the SGL") }))
			if err == nil || !strings.Contains(fmt.Sprint(err), "body failed under the SGL") {
				t.Fatalf("Run 1 did not fail on the fall-back path: %v", err)
			}
			return sys, c
		}
		for maxCycles := uint64(40_000); maxCycles < 80_000; maxCycles += 1009 {
			sys, c := build(t, kind, blocks, maxCycles)
			if _, err := sys.Run(counter(c, 0, 1000, nil)); !errors.Is(err, machine.ErrMaxCycles) {
				t.Fatalf("Run 1 at MaxCycles %d: %v, want ErrMaxCycles", maxCycles, err)
			}
			if left(sys) {
				return sys, c
			}
		}
		t.Fatal("no MaxCycles stop left the state behind")
		return nil, 0
	}
	// run2 runs n workers on block and requires every operation to commit.
	run2 := func(t *testing.T, sys *seer.System, c seer.Addr, block, n int) seer.Report {
		before := sys.Peek(c)
		rep, err := sys.Run(counter(c, block, run2Ops, nil)[:n])
		if err != nil {
			t.Fatalf("Run 2 after a failed Run: %v", err)
		}
		if got := sys.Peek(c) - before; got != uint64(n*run2Ops) || rep.Commits() != uint64(n*run2Ops) {
			t.Fatalf("Run 2 added %d and committed %d, want %d", got, rep.Commits(), n*run2Ops)
		}
		return rep
	}
	held := func(sys *seer.System) bool {
		return slices.ContainsFunc(sys.RuntimeLocks(), func(a seer.Addr) bool { return sys.Peek(a) != 0 })
	}
	announced := func(sys *seer.System) bool {
		return slices.ContainsFunc(sys.Scheduler().ActiveTxs(), func(b int32) bool { return b != core.NoTx })
	}
	for _, kind := range kinds {
		for _, how := range []string{"panic", "maxcycles"} {
			t.Run(string(kind)+"/"+how, func(t *testing.T) {
				sys, c := failed(t, kind, 1, how, held)
				rep := run2(t, sys, c, 0, threads)
				if p := rep.Phased; p != nil && (p.Transitions == 0 || p.ModeCycles[policy.PhaseHW]+p.ModeCycles[policy.PhaseSW] == 0) {
					t.Errorf("PhTM Run 2 made %d transitions, %v cycles per mode: the failed Run left the mode in GLOCK",
						p.Transitions, p.ModeCycles)
				}
			})
		}
	}
	for _, how := range []string{"panic", "maxcycles"} {
		t.Run("Seer/narrower-after-"+how, func(t *testing.T) {
			sys, c := failed(t, seer.PolicySeer, 2, how, announced)
			before, after := stats.NewMatrices(2), stats.NewMatrices(2)
			sys.Scheduler().SnapshotLearned(before)
			run2(t, sys, c, 1, 2)
			sys.Scheduler().SnapshotLearned(after)
			if a, k := after.Aborts(1, 0)-before.Aborts(1, 0), after.Commits(1, 0)-before.Commits(1, 0); a != 0 || k != 0 {
				t.Errorf("Run 2 on block 1 booked %d aborts and %d commits against block 0, which it never ran", a, k)
			}
			if announced(sys) {
				t.Errorf("after Run 2 the active-transactions list reads %v, want every slot empty", sys.Scheduler().ActiveTxs())
			}
		})
	}
}

// TestReportOwnsSeerScheme: a Report's scheme rows are its own, so a later
// Run does not change them. Run 1 serializes blocks 0 and 1, Run 2 blocks
// 2 and 3; Run 1's Summary, read again after Run 2, is byte-identical to
// the one read right after Run 1.
func TestReportOwnsSeerScheme(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy, cfg.Threads, cfg.PhysCores, cfg.NumAtomicBlocks = seer.PolicySeer, 8, 4, 4
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counters := [2]seer.Addr{sys.AllocAligned(1), sys.AllocAligned(1)}
	// conflict runs half the workers on each of two blocks, each half
	// incrementing its own counter in a long transaction.
	conflict := func(blocks [2]int) []seer.Worker {
		workers := make([]seer.Worker, cfg.Threads)
		for i := range workers {
			block, c := blocks[i%2], counters[i%2]
			workers[i] = func(th *seer.Thread) {
				for range 200 {
					th.Atomic(block, func(a seer.Access) {
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
	rep1, err := sys.Run(conflict([2]int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	first := rep1.Summary()
	rep2, err := sys.Run(conflict([2]int{2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "scheme[2]=[]\n") || strings.Contains(rep2.Summary(), "scheme[2]=[]\n") {
		t.Fatalf("Run 2 must serialize block 2 and Run 1 must not; Run 1 reads\n%s", first)
	}
	if again := rep1.Summary(); again != first {
		t.Errorf("Run 1's Summary changed with Run 2:\nafter Run 1:\n%s\nafter Run 2:\n%s", first, again)
	}
}
