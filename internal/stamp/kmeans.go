package stamp

import (
	"fmt"

	"seer"
	"seer/internal/tmds"
)

// Kmeans models STAMP's clustering benchmark: each iteration assigns a
// point to its nearest centroid (pure computation on thread-private data)
// and then transactionally folds the point into that centroid's
// accumulator (count, sum). There is a single atomic block; contention is
// set by the cluster count — the "high" variant uses few clusters so
// updates collide often, the "low" variant many clusters.
type Kmeans struct {
	name      string
	totalOps  int
	nClusters int
	dims      int

	// Each cluster accumulator occupies one cache line:
	// [count, sum0, sum1, sum2, ...].
	clusters *tmds.Counters
}

func init() {
	Register("kmeans-high", func(scale float64) Workload {
		return NewKmeans("kmeans-high", scaled(12800, scale, 128), 6)
	})
	Register("kmeans-low", func(scale float64) Workload {
		return NewKmeans("kmeans-low", scaled(12800, scale, 128), 64)
	})
}

// NewKmeans builds a kmeans instance with the given op count and cluster
// count.
func NewKmeans(name string, totalOps, nClusters int) *Kmeans {
	return &Kmeans{name: name, totalOps: totalOps, nClusters: nClusters, dims: 3}
}

// Name implements Workload.
func (w *Kmeans) Name() string { return w.name }

// NumAtomicBlocks implements Workload.
func (w *Kmeans) NumAtomicBlocks() int { return 1 }

// MemWords implements Workload.
func (w *Kmeans) MemWords() int { return w.nClusters*8 + 1<<12 }

// Setup implements Workload.
func (w *Kmeans) Setup(sys *seer.System) error {
	w.clusters = tmds.NewCounters(sys.Memory(), w.nClusters)
	return nil
}

// Workers implements Workload.
func (w *Kmeans) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// The body is built once per worker and reads the op's
			// operands from these variables (DESIGN §6c).
			var (
				point uint64
				base  seer.Addr
			)
			body := func(a seer.Access) {
				a.Work(40)                    // accumulate coordinates
				a.Store(base, a.Load(base)+1) // membership count
				for d := 0; d < w.dims; d++ {
					off := base + seer.Addr(1+d)
					a.Store(off, a.Load(off)+point+uint64(d))
				}
			}
			for n := 0; n < ops; n++ {
				// Distance computation over all clusters (private); the
				// jitter models per-point variance and prevents the
				// deterministic engine from phase-locking threads.
				t.Work(uint64(10*w.nClusters + rng.Intn(2*w.nClusters+1)))
				c := rng.Intn(w.nClusters)
				point = rng.Uint64() % 1000
				base = w.clusters.Addr(c)
				// The cluster index is the natural object identity:
				// with the object-granular extension enabled, Seer
				// serializes only same-cluster updates.
				t.AtomicObj(0, uint64(c), body)
			}
		}
	})
}

// Validate implements Workload.
func (w *Kmeans) Validate(sys *seer.System) error {
	var count uint64
	for c := 0; c < w.nClusters; c++ {
		count += sys.Peek(w.clusters.Addr(c))
	}
	if count != uint64(w.totalOps) {
		return fmt.Errorf("%s: cluster memberships sum to %d, want %d", w.name, count, w.totalOps)
	}
	return nil
}

// SSCA2 models STAMP's graph kernel (Scalable Synthetic Compact
// Applications 2, kernel 1: graph construction). Each operation adds one
// directed edge: a tiny transaction appending to the target node's
// adjacency record. With many nodes the conflict probability is low and
// transactions are minimal — the regime where HTM overhead itself (and
// the fall-back) dominates.
type SSCA2 struct {
	totalOps int
	nNodes   int
	adjCap   int

	adj seer.Addr // per node, one line: [degree, e0..e6]
}

func init() {
	Register("ssca2", func(scale float64) Workload { return NewSSCA2(scale) })
}

// NewSSCA2 builds an ssca2 instance at the given scale.
func NewSSCA2(scale float64) *SSCA2 {
	return &SSCA2{
		totalOps: scaled(16000, scale, 160),
		nNodes:   scaled(4096, scale, 64),
		adjCap:   6,
	}
}

// Name implements Workload.
func (w *SSCA2) Name() string { return "ssca2" }

// NumAtomicBlocks implements Workload.
func (w *SSCA2) NumAtomicBlocks() int { return 1 }

// MemWords implements Workload.
func (w *SSCA2) MemWords() int { return w.nNodes*8 + 1<<12 }

// Setup implements Workload.
func (w *SSCA2) Setup(sys *seer.System) error {
	w.adj = sys.AllocLines(w.nNodes)
	return nil
}

func (w *SSCA2) nodeAddr(n int) seer.Addr { return w.adj + seer.Addr(n*8) }

// Workers implements Workload.
func (w *SSCA2) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// The body is built once per worker and reads the op's
			// operands from these variables (DESIGN §6c).
			var (
				dst  uint64
				base seer.Addr
			)
			body := func(a seer.Access) {
				a.Work(20) // edge weight computation
				deg := a.Load(base)
				slot := deg % uint64(w.adjCap) // ring of edge slots
				a.Store(base+1+seer.Addr(slot), dst)
				a.Store(base, deg+1)
			}
			for n := 0; n < ops; n++ {
				src := rng.Intn(w.nNodes)
				dst = uint64(rng.Intn(w.nNodes))
				base = w.nodeAddr(src)
				t.Atomic(0, body)
				t.Work(160)
			}
		}
	})
}

// Validate implements Workload.
func (w *SSCA2) Validate(sys *seer.System) error {
	var degrees uint64
	for n := 0; n < w.nNodes; n++ {
		degrees += sys.Peek(w.nodeAddr(n))
	}
	if degrees != uint64(w.totalOps) {
		return fmt.Errorf("ssca2: degrees sum to %d, want %d", degrees, w.totalOps)
	}
	return nil
}
