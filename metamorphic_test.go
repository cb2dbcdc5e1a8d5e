package seer_test

import (
	"testing"

	"seer"
	"seer/internal/mem"
	"seer/internal/stamp"
)

// Metamorphic relations: properties that say how a run must change, or
// that it must not, when its input changes in a way the model calls
// irrelevant. A golden pins one behaviour; a relation pins a symmetry of
// the simulator.

// TestLayoutShiftInvariance (R2): the address layout matters only up to
// the cache line. The conflict registry, the read and write sets and the
// cost model see lines, never their numbers, so shifting a workload's
// whole layout by 1, 8, 64 or 1 000 lines must leave its report unchanged.
// Real TSX need not behave so (allocator placement moves its results);
// here line-number independence is a modelling choice, pinned.
func TestLayoutShiftInvariance(t *testing.T) {
	workloads := []string{"intruder", "vacation-high", "vacation-low", "genome", "yada",
		"kmeans-high", "kmeans-low", "ssca2", "adv-clique"}
	policies := []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer, seer.PolicyPhased, seer.PolicyHLE}
	for _, name := range workloads {
		wl, err := stamp.New(name, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range policies {
			cfg := stamp.Config(wl, 8, seer.Topology{})
			cfg.Policy = pol
			base, _ := runHerdCell(t, wl, cfg, seer.NewSystem)
			for _, lines := range []int{1, 8, 64, 1000} { // 1: even shifts keep every line's parity
				rep, _ := runHerdCell(t, wl, cfg, padded(lines*mem.LineWords))
				if got, want := rep.Summary(), base.Summary(); got != want {
					t.Errorf("%s/%s: %d padding lines change the report\n--- padded ---\n%s--- unpadded ---\n%s",
						name, pol, lines, got, want)
				}
			}
		}
	}
}
