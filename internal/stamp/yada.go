package stamp

import (
	"fmt"

	"seer"
)

// Yada models STAMP's Delaunay mesh refinement: transactions grow a
// "cavity" around a bad triangle, touching a large neighbourhood of mesh
// elements, then retriangulate it — very large read/write sets and high
// conflict probability. On best-effort HTM these transactions frequently
// exceed capacity (especially with hyperthread siblings sharing the L1)
// and conflict with overlapping cavities, so every policy stays below
// sequential speed (paper Figure 3h); Seer merely degrades least.
//
//	block 0 (refine):  read-modify-write a contiguous region of the mesh
//	                   (cavity), large footprint
//	block 1 (queue):   take/return work from the bad-triangle counter
type Yada struct {
	totalOps  int
	nCells    int
	cavityMin int
	cavityMax int

	mesh     seer.Addr   // one line per cell
	workHead seer.Addr   // bad-triangle work counter (hot by design)
	refined  ThreadStats // total cells rewritten (conservation check)
}

func init() {
	Register("yada", func(scale float64) Workload { return NewYada(scale) })
}

// NewYada builds a yada instance at the given scale.
func NewYada(scale float64) *Yada {
	return &Yada{
		totalOps: scaled(900, scale, 18),
		nCells:   scaled(4096, scale, 256),
		// Cavities fit a solo thread's write budget (64 lines) but the
		// larger ones exceed the budget once a hyperthread sibling is
		// transactional (32 lines) — the capacity pathology core locks
		// address.
		cavityMin: 24,
		cavityMax: 72,
	}
}

// Name implements Workload.
func (w *Yada) Name() string { return "yada" }

// NumAtomicBlocks implements Workload.
func (w *Yada) NumAtomicBlocks() int { return 2 }

// MemWords implements Workload.
func (w *Yada) MemWords() int { return w.nCells*8 + 1<<12 }

// Setup implements Workload.
func (w *Yada) Setup(sys *seer.System) error {
	w.mesh = sys.AllocLines(w.nCells)
	w.workHead = sys.AllocLines(1)
	w.refined = NewThreadStats(sys)
	return nil
}

// Workers implements Workload.
func (w *Yada) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker and read the cavity from
			// these variables; the cavity buffer is reused across
			// attempts (DESIGN §6c).
			var size, start int
			vals := make([]uint64, w.cavityMax)
			claim := func(a seer.Access) {
				a.Work(10)
				a.Store(w.workHead, a.Load(w.workHead)+1)
			}
			refine := func(a seer.Access) {
				// Read the whole cavity first (the read set is held
				// for the entire refinement), retriangulate, then
				// write the new elements back.
				for c := 0; c < size; c++ {
					vals[c] = a.Load(w.mesh + seer.Addr((start+c)*8))
				}
				a.Work(160) // retriangulation geometry
				for c := 0; c < size; c++ {
					a.Store(w.mesh+seer.Addr((start+c)*8), vals[c]+1)
				}
				w.refined.Add(a, uint64(size))
			}
			for n := 0; n < ops; n++ {
				// Claim work.
				t.Atomic(1, claim)
				t.Work(uint64(6 + rng.Intn(9)))

				// Refine a cavity: a contiguous cell region drawn from
				// the sliding "active front" of the mesh, so concurrent
				// cavities overlap with high probability (as refinement
				// work clusters around bad triangles).
				size = w.cavityMin + rng.Intn(w.cavityMax-w.cavityMin+1)
				window := 96
				if window > w.nCells-w.cavityMax {
					window = w.nCells - w.cavityMax
				}
				// The refinement front is a function of global virtual
				// time, so all threads work the same mesh region
				// concurrently (bad triangles cluster); deriving it from
				// the per-thread iteration count would let threads drift
				// into disjoint regions and anneal the conflicts away.
				front := int(t.Clock()/700*97) % (w.nCells - window + 1)
				start = front + rng.Intn(window-size+1)
				t.Atomic(0, refine)
				t.Work(uint64(12 + rng.Intn(17)))
			}
		}
	})
}

// Validate implements Workload.
func (w *Yada) Validate(sys *seer.System) error {
	var sum uint64
	for c := 0; c < w.nCells; c++ {
		sum += sys.Peek(w.mesh + seer.Addr(c*8))
	}
	if refined := w.refined.Sum(sys); sum != refined {
		return fmt.Errorf("yada: mesh increments %d != refined counter %d", sum, refined)
	}
	if head := sys.Peek(w.workHead); head != uint64(w.totalOps) {
		return fmt.Errorf("yada: work counter %d, want %d", head, w.totalOps)
	}
	return nil
}
