package stamp_test

import (
	"fmt"
	"testing"

	"seer"
	"seer/internal/stamp"
)

// TestConfigFitsEveryWorkloadOnEveryShape: the cell recipe must size a
// system every registered workload can be set up on, for the paper
// testbed, the grown flat machine and the wide multi-socket shapes — with
// memory to spare. Set-up only (no Run), so the whole table stays cheap.
func TestConfigFitsEveryWorkloadOnEveryShape(t *testing.T) {
	shape := func(spec string) seer.Topology {
		topo, err := seer.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	shapes := []struct {
		threads int
		topo    seer.Topology // zero = the paper testbed, grown flat above 8 threads
	}{{8, seer.Topology{}}, {16, seer.Topology{}}, {32, shape("2s8c2t")}, {128, shape("4s16c2t")}}
	for _, name := range stamp.Names() {
		for _, sh := range shapes {
			name, sh := name, sh
			t.Run(fmt.Sprintf("%s/%dt", name, sh.threads), func(t *testing.T) {
				wl, err := stamp.New(name, 0.05)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := seer.NewSystem(stamp.Config(wl, sh.threads, sh.topo))
				if err != nil {
					t.Fatal(err)
				}
				if err := wl.Setup(sys); err != nil {
					t.Fatal(err)
				}
				if sys.FreeWords() <= 0 {
					t.Fatalf("no simulated memory left after set-up (%d free)", sys.FreeWords())
				}
			})
		}
	}
}
