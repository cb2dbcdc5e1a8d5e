package stamp

import (
	"fmt"

	"seer"
	"seer/internal/tmds"
)

// HashMapBench is the low-contention microbenchmark of §5.3: a hash map
// with 4k elements and 1k buckets under a read-dominated mix, used to
// bound Seer's profiling overhead in the most overhead-sensitive regime
// (where there is nothing for the scheduler to gain).
type HashMapBench struct {
	totalOps int
	elements int
	buckets  int

	table   *tmds.HashMap
	balance ThreadStats // net inserts − deletes (wrapping)
}

func init() {
	Register("hashmap", func(scale float64) Workload { return NewHashMapBench(scale) })
}

// NewHashMapBench builds the 4k-element / 1k-bucket map of the paper.
func NewHashMapBench(scale float64) *HashMapBench {
	return &HashMapBench{
		totalOps: scaled(12800, scale, 128),
		elements: scaled(4096, scale, 64),
		buckets:  scaled(1024, scale, 16),
	}
}

// Name implements Workload.
func (w *HashMapBench) Name() string { return "hashmap" }

// NumAtomicBlocks implements Workload.
func (w *HashMapBench) NumAtomicBlocks() int { return 1 }

// MemWords implements Workload.
func (w *HashMapBench) MemWords() int {
	return w.buckets + (w.elements+w.totalOps/4)*4 + 1<<15
}

// Setup implements Workload.
func (w *HashMapBench) Setup(sys *seer.System) error {
	m := sys.Memory()
	arena := tmds.NewArena(m, (w.elements+w.totalOps/4)*3+arenaSlack(sys), sys.HWThreads())
	w.table = tmds.NewHashMap(m, w.buckets, arena)
	w.balance = NewThreadStats(sys)
	acc := rawSys{sys}
	for i := 0; i < w.elements; i++ {
		w.table.Put(acc, uint64(i), uint64(i))
	}
	return nil
}

// Workers implements Workload.
func (w *HashMapBench) Workers(nThreads int) []seer.Worker {
	keySpace := uint64(w.elements * 2)
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker and read the op's key from
			// k (DESIGN §6c).
			var k uint64
			get := func(a seer.Access) {
				a.Work(120)
				_, _ = w.table.Get(a, k)
			}
			put := func(a seer.Access) {
				a.Work(120)
				if w.table.PutIfAbsent(a, k, k) {
					w.balance.Add(a, 1)
				}
			}
			del := func(a seer.Access) {
				a.Work(120)
				if w.table.Delete(a, k) {
					w.balance.Add(a, ^uint64(0)) // -1, wrapping
				}
			}
			for n := 0; n < ops; n++ {
				k = rng.Uint64() % keySpace
				switch r := rng.Intn(100); {
				case r < 90:
					t.Atomic(0, get)
				case r < 95:
					t.Atomic(0, put)
				default:
					t.Atomic(0, del)
				}
				t.Work(uint64(100 + rng.Intn(41)))
			}
		}
	})
}

// Validate implements Workload.
func (w *HashMapBench) Validate(sys *seer.System) error {
	acc := rawSys{sys}
	want := uint64(w.elements) + w.balance.Sum(sys) // two's-complement add
	if got := w.table.Size(acc); got != want {
		return fmt.Errorf("hashmap: size %d, want %d (initial %d %+d)",
			got, want, w.elements, int64(w.balance.Sum(sys)))
	}
	return nil
}
