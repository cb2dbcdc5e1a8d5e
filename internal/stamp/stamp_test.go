package stamp_test

import (
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// TestAllWorkloadsAllPolicies runs every registered workload under every
// policy at a small scale and checks the workload's own invariants — the
// end-to-end correctness test of the whole stack (engine, memory, HTM,
// locks, scheduler, data structures).
func TestAllWorkloadsAllPolicies(t *testing.T) {
	policies := []seer.PolicyKind{
		seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer,
	}
	for _, name := range stamp.Names() {
		for _, pol := range policies {
			name, pol := name, pol
			t.Run(name+"/"+string(pol), func(t *testing.T) {
				res, err := harness.RunOne(harness.Spec{
					Workload: name,
					Scale:    0.12,
					Policy:   pol,
					Threads:  8,
					Runs:     1,
					Seed:     7,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep := res.Reports[0]
				if rep.Commits() == 0 {
					t.Fatalf("no commits recorded")
				}
				if rep.MakespanCycles == 0 {
					t.Fatalf("zero makespan")
				}
			})
		}
	}
}

// TestWorkloadsSequential checks every workload's invariants after a
// plain sequential run, isolating workload-logic bugs from concurrency.
func TestWorkloadsSequential(t *testing.T) {
	for _, name := range stamp.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			if _, err := harness.RunOne(harness.Spec{
				Workload: name, Scale: 0.12, Policy: seer.PolicySeq,
				Threads: 1, Runs: 1, Seed: 3,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadThreadSweep exercises partitioning across 1..8 threads for
// one queue-driven (exact-partitioning-sensitive) workload.
func TestWorkloadThreadSweep(t *testing.T) {
	for th := 1; th <= 8; th++ {
		if _, err := harness.RunOne(harness.Spec{
			Workload: "intruder", Scale: 0.1, Policy: seer.PolicyRTM,
			Threads: th, Runs: 1, Seed: 11,
		}); err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
	}
}

// TestDeterministicRuns checks that the same Spec yields identical
// makespans (whole-system determinism through the stamp layer).
func TestDeterministicRuns(t *testing.T) {
	spec := harness.Spec{
		Workload: "genome", Scale: 0.1, Policy: seer.PolicySeer,
		Threads: 8, Runs: 1, Seed: 13,
	}
	a, err := harness.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := harness.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reports[0].MakespanCycles != b.Reports[0].MakespanCycles {
		t.Fatalf("nondeterministic makespan: %d vs %d",
			a.Reports[0].MakespanCycles, b.Reports[0].MakespanCycles)
	}
}

// TestRegistry checks the factory registry and suite listing.
func TestRegistry(t *testing.T) {
	if _, err := stamp.New("no-such-benchmark", 1); err == nil {
		t.Fatalf("expected error for unknown workload")
	}
	names := stamp.Names()
	want := map[string]bool{}
	// Suite + the §5.3 microbenchmark + the two workloads the paper
	// excludes from its evaluation (implemented for completeness) + the
	// adversarial conflict-graph generators (registered by the harness's
	// adversary import) + the capacity-bound phased-TM stressor.
	for _, n := range append(append([]string{}, stamp.Suite...),
		"hashmap", "bayes", "labyrinth", "capbound",
		"adv-ring", "adv-star", "adv-bipartite", "adv-clique", "adv-phase") {
		want[n] = true
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, stamp.Suite)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected workload %q", n)
		}
		wl, err := stamp.New(n, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if wl.Name() != n {
			t.Fatalf("workload %q reports name %q", n, wl.Name())
		}
		if wl.NumAtomicBlocks() <= 0 || wl.MemWords() <= 0 {
			t.Fatalf("workload %q has degenerate sizing", n)
		}
	}
}
