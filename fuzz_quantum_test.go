package seer_test

import (
	"testing"

	"seer"
)

// fuzzPolicies is the rotation the quantum fuzzer draws from: every policy
// with a hardware path (speculative quanta never engage under PolicySeq's
// single thread, but it is kept as a degenerate case).
var fuzzPolicies = []seer.PolicyKind{
	seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicyATS,
	seer.PolicyOracle, seer.PolicySeer, seer.PolicyBackoff, seer.PolicySeq,
}

// quantumFuzzRun executes one randomized contended workload under the
// given speculative-quantum budget and returns the canonical report
// digest. The digest (Report.Summary) deliberately excludes the quantum
// diagnostic counters, so it must be byte-identical across budgets.
func quantumFuzzRun(t *testing.T, pol seer.PolicyKind, seed int64, threads, slots, iters, quantum int) string {
	t.Helper()
	cfg := seer.DefaultConfig()
	cfg.Policy = pol
	cfg.Threads = threads
	cfg.HWThreads = 8
	cfg.PhysCores = 4
	if threads > 8 {
		cfg.HWThreads = threads
		cfg.PhysCores = (threads + 1) / 2
	}
	cfg.Seed = seed
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 16
	cfg.MetricsInterval = 1 << 14
	cfg.MaxCycles = 1 << 32
	if pol == seer.PolicySeq {
		cfg.Threads = 1
		threads = 1
	}
	sys, err := seer.NewSystemQuantum(cfg, quantum)
	if err != nil {
		t.Fatalf("NewSystem(%s, quantum=%d): %v", pol, quantum, err)
	}
	arr := sys.AllocAligned(slots)
	sums := sys.AllocAligned(threads)
	workers := make([]seer.Worker, threads)
	for i := range workers {
		id := i
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < iters; n++ {
				th.Atomic(0, func(a seer.Access) {
					from := arr + seer.Addr(th.Rand().Intn(slots))
					to := arr + seer.Addr(th.Rand().Intn(slots))
					v := a.Load(from)
					a.Store(from, v-1)
					a.Store(to, a.Load(to)+1)
					a.Work(uint64(1 + n%7)) // in-txn pure ticks: speculable
				})
				th.Work(uint64(5 + id)) // between-txn pure ticks: speculable
				th.Atomic(1, func(a seer.Access) {
					var sum uint64
					for k := 0; k < slots/4; k++ {
						sum += a.Load(arr + seer.Addr((id*slots/4+k)%slots))
					}
					a.Store(sums+seer.Addr(id), sum)
				})
			}
		}
	}
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatalf("Run(%s, quantum=%d): %v", pol, quantum, err)
	}
	return rep.Summary()
}

// FuzzQuantumRollback is the differential fuzzer for the speculative
// quantum engine: whatever the seed, policy, contention shape and quantum
// budget, the canonical report digest — makespan, commit modes, abort
// causes, every telemetry interval — must be byte-identical to the
// per-tick (quantum 0) run. Any divergence means a speculated
// tick leaked an observation past the undo log (exactly the bug class the
// mem.Peek speculation barrier exists for), so the digest comparison is
// the whole oracle.
func FuzzQuantumRollback(f *testing.F) {
	f.Add(int64(42), uint8(4), uint8(5), uint8(16), uint8(40), uint16(64))
	f.Add(int64(1), uint8(8), uint8(1), uint8(8), uint8(25), uint16(1))
	f.Add(int64(7), uint8(2), uint8(3), uint8(32), uint8(60), uint16(7))
	f.Add(int64(99), uint8(6), uint8(6), uint8(12), uint8(30), uint16(1024))
	f.Fuzz(func(t *testing.T, seed int64, threads, polIdx, slots, iters uint8, quantum uint16) {
		pol := fuzzPolicies[int(polIdx)%len(fuzzPolicies)]
		nThreads := 1 + int(threads)%8
		nSlots := 4 * (1 + int(slots)%8) // 4..32, multiple of 4 for the scan block
		nIters := 1 + int(iters)%60
		k := 1 + int(quantum)%2048
		base := quantumFuzzRun(t, pol, seed, nThreads, nSlots, nIters, 0)
		spec := quantumFuzzRun(t, pol, seed, nThreads, nSlots, nIters, k)
		if base != spec {
			t.Fatalf("%s seed=%d threads=%d slots=%d iters=%d: quantum=%d digest diverged from per-tick run\n--- per-tick ---\n%s--- quantum ---\n%s",
				pol, seed, nThreads, nSlots, nIters, k, base, spec)
		}
	})
}
