package stamp

import (
	"fmt"

	"seer"
)

// capBoundLines is the write-set size of every capacity-bound operation:
// comfortably above the simulated L1's 64-line write budget (and any
// sibling-divided fraction of it), so a hardware attempt can never
// commit regardless of retries. It is a structural constant, not a
// scaled parameter — shrinking it below the budget would change the
// workload's character entirely.
const capBoundLines = 96

// CapBound is the capacity-bound workload of the phased-TM exhibit:
// every thread owns a private, disjoint region of capBoundLines cache
// lines and each operation increments all of them. The write set
// overflows the hardware write budget on every attempt, so HTM-only
// policies serialize the whole run through the single global lock,
// while a phased runtime routes the blocks to its software commit path
// where the disjoint regions commit concurrently. The workload is fully
// deterministic (no RNG) and validated by exact per-line counts.
type CapBound struct {
	totalOps int
	regions  []seer.Addr // one region of capBoundLines lines per thread
}

func init() {
	Register("capbound", func(scale float64) Workload { return NewCapBound(scale) })
}

// NewCapBound builds the capacity-bound instance at the given scale.
func NewCapBound(scale float64) *CapBound {
	return &CapBound{totalOps: scaled(768, scale, 32)}
}

// Name implements Workload.
func (w *CapBound) Name() string { return "capbound" }

// NumAtomicBlocks implements Workload.
func (w *CapBound) NumAtomicBlocks() int { return 1 }

// MemWords implements Workload.
func (w *CapBound) MemWords() int {
	// Sized for the widest harness shape; Setup allocates per logical
	// thread, eight words per line.
	return 256*capBoundLines*8 + 1<<12
}

// Setup implements Workload.
func (w *CapBound) Setup(sys *seer.System) error {
	n := sys.Config().Threads
	w.regions = make([]seer.Addr, n)
	for i := range w.regions {
		w.regions[i] = sys.AllocLines(capBoundLines)
	}
	return nil
}

// Workers implements Workload.
func (w *CapBound) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(i, ops int) seer.Worker {
		base := w.regions[i]
		return func(t *seer.Thread) {
			body := func(a seer.Access) {
				for j := 0; j < capBoundLines; j++ {
					p := base + seer.Addr(j*8)
					a.Store(p, a.Load(p)+1)
				}
			}
			for n := 0; n < ops; n++ {
				t.Atomic(0, body)
				t.Work(40)
			}
		}
	})
}

// Validate implements Workload.
func (w *CapBound) Validate(sys *seer.System) error {
	parts := split(w.totalOps, len(w.regions))
	for i, base := range w.regions {
		want := uint64(parts[i])
		for j := 0; j < capBoundLines; j++ {
			p := base + seer.Addr(j*8)
			if got := sys.Peek(p); got != want {
				return fmt.Errorf("capbound: thread %d line %d count %d, want %d",
					i, j, got, want)
			}
		}
	}
	return nil
}
