package seer_test

import (
	"testing"

	"seer"
	"seer/internal/telemetry"
)

// runCounter runs nThreads workers each incrementing a shared counter
// opsPerThread times under the given policy and returns the report.
func runCounter(t *testing.T, pol seer.PolicyKind, nThreads, opsPerThread int) (seer.Report, *seer.System, seer.Addr) {
	t.Helper()
	cfg := seer.DefaultConfig()
	cfg.Policy = pol
	cfg.Threads = nThreads
	cfg.PhysCores = (nThreads + 1) / 2
	if cfg.PhysCores == 0 {
		cfg.PhysCores = 1
	}
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 1 << 32
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	counter := sys.AllocAligned(1)
	workers := make([]seer.Worker, nThreads)
	for i := range workers {
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < opsPerThread; n++ {
				th.Atomic(0, func(a seer.Access) {
					a.Store(counter, a.Load(counter)+1)
				})
				th.Work(5)
			}
		}
	}
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatalf("Run(%s): %v", pol, err)
	}
	return rep, sys, counter
}

// TestCounterAtomicity checks, for every policy, that concurrent
// increments never lose updates: the HTM plus fall-back must serialize
// them.
func TestCounterAtomicity(t *testing.T) {
	for _, pol := range []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			const threads, ops = 8, 400
			rep, sys, counter := runCounter(t, pol, threads, ops)
			got := sys.Peek(counter)
			want := uint64(threads * ops)
			if got != want {
				t.Fatalf("%s: counter = %d, want %d (lost updates)", pol, got, want)
			}
			if rep.Commits() != want {
				t.Fatalf("%s: commits = %d, want %d", pol, rep.Commits(), want)
			}
			if rep.MakespanCycles == 0 {
				t.Fatalf("%s: zero makespan", pol)
			}
		})
	}
}

// TestSequentialBaseline checks the uninstrumented sequential policy.
func TestSequentialBaseline(t *testing.T) {
	rep, sys, counter := runCounter(t, seer.PolicySeq, 1, 500)
	if got := sys.Peek(counter); got != 500 {
		t.Fatalf("counter = %d, want 500", got)
	}
	if rep.HTM.Commits != 0 {
		t.Fatalf("sequential run used hardware transactions: %+v", rep.HTM)
	}
}

// TestDeterminism verifies that two identical runs produce bit-identical
// reports — the foundational property of the virtual-time engine.
func TestDeterminism(t *testing.T) {
	rep1, _, _ := runCounter(t, seer.PolicySeer, 6, 300)
	rep2, _, _ := runCounter(t, seer.PolicySeer, 6, 300)
	if rep1.MakespanCycles != rep2.MakespanCycles {
		t.Fatalf("makespan differs: %d vs %d", rep1.MakespanCycles, rep2.MakespanCycles)
	}
	if rep1.HTM != rep2.HTM {
		t.Fatalf("HTM counters differ: %+v vs %+v", rep1.HTM, rep2.HTM)
	}
	if rep1.Modes != rep2.Modes {
		t.Fatalf("mode counts differ: %v vs %v", rep1.Modes, rep2.Modes)
	}
}

// TestContentionSerializes checks that with heavy conflicts the system
// still makes progress and commits everything.
func TestContentionSerializes(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = 8
	cfg.PhysCores = 4
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 1 << 33
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.AllocAligned(1)
	b := sys.AllocAligned(1)
	workers := make([]seer.Worker, 8)
	for i := range workers {
		id := i
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < 200; n++ {
				if id%2 == 0 {
					th.Atomic(0, func(ac seer.Access) {
						v := ac.Load(a)
						ac.Store(b, ac.Load(b)+v+1)
						ac.Store(a, v+1)
					})
				} else {
					th.Atomic(1, func(ac seer.Access) {
						v := ac.Load(b)
						ac.Store(a, ac.Load(a)+1)
						ac.Store(b, v+1)
					})
				}
			}
		}
	}
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Peek(a), uint64(8*200/2*2); got != want {
		t.Fatalf("a = %d, want %d", got, want)
	}
	if rep.Commits() != 8*200 {
		t.Fatalf("commits = %d, want %d", rep.Commits(), 8*200)
	}
}

// TestTraceViaPublicAPI: enabling TraceEvents yields a chronological
// event log with matched begins and outcomes.
func TestTraceViaPublicAPI(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicyRTM
	cfg.Threads = 2
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 12
	cfg.TraceEvents = 4096
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := sys.AllocAligned(1)
	workers := make([]seer.Worker, 2)
	for i := range workers {
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < 50; n++ {
				th.Atomic(0, func(a seer.Access) {
					a.Store(counter, a.Load(counter)+1)
				})
			}
		}
	}
	if _, err := sys.Run(workers); err != nil {
		t.Fatal(err)
	}
	rec := sys.Recorder()
	if rec.EventTotal() == 0 {
		t.Fatalf("trace empty")
	}
	evs := rec.Events()
	sum := telemetry.SummarizeEvents(evs)
	begins := sum[telemetry.EvBegin]
	outcomes := sum[telemetry.EvCommit] + sum[telemetry.EvAbort]
	if begins == 0 || begins != outcomes {
		t.Fatalf("begins=%d outcomes=%d (every attempt needs an outcome)", begins, outcomes)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("trace not chronological at %d", i)
		}
	}
}
