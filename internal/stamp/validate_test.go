package stamp_test

// Failure-injection tests: every workload's Validate must detect
// deliberately corrupted simulated state. A validator that cannot fail
// proves nothing when it passes.

import (
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// runAndCorrupt runs a workload sequentially, then lets corrupt mangle
// the simulated memory, and returns Validate's error.
func runAndCorrupt(t *testing.T, name string, corrupt func(sys *seer.System)) error {
	t.Helper()
	wl, err := stamp.New(name, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 2, seer.Topology{})
	cfg.Policy = seer.PolicyRTM
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatalf("pre-corruption run failed: %v", err)
	}
	corrupt(sys)
	return wl.Validate(sys)
}

// smashHigh flips a swath of words near the end of the allocated
// region (per-thread stats, trailing structures).
func smashHigh(sys *seer.System) {
	hi := sys.Config().MemWords - sys.FreeWords()
	for a := hi - 256; a < hi-128; a++ {
		if a > 0 {
			sys.Poke(seer.Addr(a), sys.Peek(seer.Addr(a))+3)
		}
	}
}

// smashLow flips words in the early workload allocations (tree nodes,
// cluster accumulators); runtime lock words it also hits are inert after
// the run.
func smashLow(sys *seer.System) {
	for a := 16; a < 900; a++ {
		sys.Poke(seer.Addr(a), sys.Peek(seer.Addr(a))+3)
	}
}

// TestSequentialVsTMResults: for the two paper-excluded workloads, a
// sequential run and a transactional run must produce the same committed
// work (every proposed operation commits exactly one atomic block, so
// the commit totals are thread-count invariant) and both must validate.
func TestSequentialVsTMResults(t *testing.T) {
	for _, name := range []string{"bayes", "labyrinth"} {
		name := name
		t.Run(name, func(t *testing.T) {
			seq, err := harness.RunOne(harness.Spec{
				Workload: name, Scale: 0.1, Policy: seer.PolicySeq,
				Threads: 1, Runs: 1, Seed: 5,
			})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicyBackoff, seer.PolicySeer} {
				tm, err := harness.RunOne(harness.Spec{
					Workload: name, Scale: 0.1, Policy: pol,
					Threads: 4, Runs: 1, Seed: 5,
				})
				if err != nil {
					t.Fatalf("%s: %v", pol, err)
				}
				if got, want := tm.Reports[0].Commits(), seq.Reports[0].Commits(); got != want {
					t.Fatalf("%s commits %d != sequential commits %d", pol, got, want)
				}
			}
		})
	}
}

func TestValidatorsDetectCorruption(t *testing.T) {
	// Workloads whose validated state lives in the early allocations.
	lowRegion := map[string]bool{
		"kmeans-high": true, "kmeans-low": true,
		"vacation-high": true, "vacation-low": true,
	}
	// For each workload, a targeted corruption the validator must catch.
	for _, name := range append(append([]string{}, stamp.Suite...), "hashmap", "bayes", "labyrinth") {
		name := name
		t.Run(name, func(t *testing.T) {
			corrupt := smashHigh
			if lowRegion[name] {
				corrupt = smashLow
			}
			err := runAndCorrupt(t, name, corrupt)
			if err == nil {
				t.Fatalf("%s: validator accepted corrupted state", name)
			}
			if !strings.Contains(err.Error(), name[:4]) && !strings.Contains(err.Error(), ":") {
				t.Fatalf("%s: unhelpful validation error %q", name, err)
			}
		})
	}
}
