package stamp_test

import (
	"testing"

	"seer"
	"seer/internal/stamp"
)

// TestPerThread: the shares sum to the total, differ by at most one with
// the remainder on the lowest indices, and worker i is built for index i.
func TestPerThread(t *testing.T) {
	for _, c := range []struct{ total, n int }{{10, 3}, {7, 8}, {64, 8}, {0, 2}} {
		var ops []int
		workers := stamp.PerThread(c.total, c.n, func(i, n int) seer.Worker {
			if i != len(ops) {
				t.Fatalf("total %d over %d: worker %d built at index %d", c.total, c.n, len(ops), i)
			}
			ops = append(ops, n)
			return func(*seer.Thread) {}
		})
		if len(workers) != c.n || len(ops) != c.n {
			t.Fatalf("total %d over %d: %d workers from %d calls", c.total, c.n, len(workers), len(ops))
		}
		sum := 0
		for i, n := range ops {
			sum += n
			if want := c.total / c.n; n != want && !(n == want+1 && i < c.total%c.n) {
				t.Fatalf("total %d over %d: worker %d gets %d ops (shares %v)", c.total, c.n, i, n, ops)
			}
		}
		if sum != c.total {
			t.Fatalf("total %d over %d: shares %v sum to %d", c.total, c.n, ops, sum)
		}
	}
}

// workersAllocs pins what Workers(8) allocates for every registered
// workload: the worker slice, its share split and one closure per
// thread, plus vacation's table list.
var workersAllocs = map[string]float64{
	"adv-bipartite": 10, "adv-clique": 10, "adv-phase": 10, "adv-ring": 10, "adv-star": 10,
	"bayes": 10, "capbound": 10, "genome": 10, "hashmap": 10, "intruder": 10,
	"kmeans-high": 10, "kmeans-low": 10, "labyrinth": 10, "ssca2": 10,
	"vacation-high": 11, "vacation-low": 11, "yada": 10,
}

// TestWorkersAllocs: building a cell's workers costs a fixed handful of
// allocations, whatever the workload.
func TestWorkersAllocs(t *testing.T) {
	names := stamp.Names()
	if len(names) != len(workersAllocs) {
		t.Fatalf("%d registered workloads, %d pinned: %v", len(names), len(workersAllocs), names)
	}
	for _, name := range names {
		want, ok := workersAllocs[name]
		if !ok {
			t.Fatalf("workload %s has no pinned allocation count", name)
		}
		wl, err := stamp.New(name, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := seer.NewSystem(stamp.Config(wl, 8, seer.Topology{}))
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.Setup(sys); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(20, func() { _ = wl.Workers(8) }); got != want {
			t.Errorf("%s: Workers(8) allocates %v, want %v", name, got, want)
		}
		sys.Release()
	}
}
