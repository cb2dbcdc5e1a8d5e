package seer_test

import (
	"testing"

	"seer"
)

// runClusters runs a kmeans-like workload (8 threads folding points into
// 6 cluster accumulators) under Seer with or without the object-granular
// locking extension, returning the report.
func runClusters(t *testing.T, objLocks bool, seed int64) seer.Report {
	t.Helper()
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = 8
	cfg.PhysCores = 4
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 13
	cfg.Seed = seed
	cfg.Seer.ObjLocks = objLocks
	cfg.Seer.UpdateEvery = 200
	cfg.MaxCycles = 1 << 33
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nClusters = 6
	clusters := sys.AllocLines(nClusters)
	workers := make([]seer.Worker, 8)
	for w := range workers {
		workers[w] = func(th *seer.Thread) {
			rng := th.Rand()
			for n := 0; n < 250; n++ {
				c := rng.Intn(nClusters)
				base := clusters + seer.Addr(c*8)
				th.AtomicObj(0, uint64(c), func(a seer.Access) {
					v := a.Load(base)
					a.Work(90)
					a.Store(base, v+1)
				})
				th.Work(uint64(10 + rng.Intn(11)))
			}
		}
	}
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for c := 0; c < nClusters; c++ {
		total += sys.Peek(clusters + seer.Addr(c*8))
	}
	if total != 8*250 {
		t.Fatalf("lost updates: %d != %d", total, 8*250)
	}
	return rep
}

// TestObjLocksPreserveAtomicity: the extension must not break
// correctness.
func TestObjLocksPreserveAtomicity(t *testing.T) {
	runClusters(t, true, 3)
}

// TestObjLocksOutperformBlockLocks: with per-cluster stripes, serialized
// transactions of different clusters proceed in parallel, so the
// extension should not be slower — and usually faster — than whole-block
// locks on this workload (averaged over seeds to damp scheduling noise).
func TestObjLocksOutperformBlockLocks(t *testing.T) {
	var block, obj uint64
	for seed := int64(1); seed <= 3; seed++ {
		block += runClusters(t, false, seed).MakespanCycles
		obj += runClusters(t, true, seed).MakespanCycles
	}
	if float64(obj) > 1.1*float64(block) {
		t.Fatalf("object-granular locks slower: %d vs %d cycles", obj, block)
	}
	t.Logf("block-lock makespan %d, object-lock makespan %d (%.2fx)",
		block, obj, float64(block)/float64(obj))
}
