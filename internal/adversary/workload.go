package adversary

import (
	"fmt"

	"seer"
	"seer/internal/stamp"
)

// Workload instantiates a conflict Graph as a runnable benchmark. One
// shared cache line per block realizes the self-conflicts; one shared
// line per (phase, edge) realizes exactly the declared cross-block
// conflicts — an edge present in two phases gets distinct lines, so a
// phase flip retargets the memory traffic completely. Every op picks a
// uniform random block, increments its block line and each incident edge
// line of the current phase, and does TxWork cycles of in-transaction
// computation. A worker's operation sequence is divided evenly across
// the graph's phases.
type Workload struct {
	G Graph
	// TotalOps across all threads.
	TotalOps int
	// TxWork is in-transaction computation per op; GapWork between ops.
	TxWork, GapWork uint64

	blockLines []seer.Addr       // one shared line per block (self conflicts)
	edgeLines  [][]seer.Addr     // [phase][edge]: one shared line per edge
	incident   [][][]int         // [phase][block]: incident edge indices
	done       stamp.ThreadStats // committed ops
	edgeMass   stamp.ThreadStats // committed edge-line increments
}

// New builds a workload for graph g. The graph is normalized first, so
// arbitrary (fuzzed) descriptions are safe.
func New(g Graph, totalOps int) *Workload {
	if totalOps < 1 {
		totalOps = 1
	}
	return &Workload{G: g.Normalize(), TotalOps: totalOps, TxWork: 80, GapWork: 10}
}

func init() {
	reg := func(name string, g Graph) {
		stamp.Register(name, func(scale float64) stamp.Workload {
			ops := int(6400 * scale)
			if ops < 64 {
				ops = 64
			}
			return New(g, ops)
		})
	}
	reg("adv-ring", Ring(8))
	reg("adv-star", Star(8))
	reg("adv-bipartite", Bipartite(2, 6))
	reg("adv-clique", Clique(6))
	reg("adv-phase", PhaseShift(8))
}

// Name implements stamp.Workload.
func (w *Workload) Name() string { return "adv-" + w.G.Name }

// NumAtomicBlocks implements stamp.Workload.
func (w *Workload) NumAtomicBlocks() int { return w.G.Blocks }

// MemWords implements stamp.Workload: block lines, edge lines, and the
// same fixed slack the stamp ports use (covers the two per-thread
// counters).
func (w *Workload) MemWords() int {
	return (w.G.Blocks+w.G.Edges())*8 + 1<<13
}

// Setup implements stamp.Workload.
func (w *Workload) Setup(sys *seer.System) error {
	w.blockLines = make([]seer.Addr, w.G.Blocks)
	for b := range w.blockLines {
		w.blockLines[b] = sys.AllocLines(1)
	}
	w.edgeLines = make([][]seer.Addr, len(w.G.Phases))
	w.incident = make([][][]int, len(w.G.Phases))
	for p, edges := range w.G.Phases {
		w.edgeLines[p] = make([]seer.Addr, len(edges))
		w.incident[p] = make([][]int, w.G.Blocks)
		for i, e := range edges {
			w.edgeLines[p][i] = sys.AllocLines(1)
			w.incident[p][e.A] = append(w.incident[p][e.A], i)
			w.incident[p][e.B] = append(w.incident[p][e.B], i)
		}
	}
	w.done = stamp.NewThreadStats(sys)
	w.edgeMass = stamp.NewThreadStats(sys)
	return nil
}

// Workers implements stamp.Workload.
func (w *Workload) Workers(nThreads int) []seer.Worker {
	phases := len(w.G.Phases)
	return stamp.PerThread(w.TotalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// The body is built once per worker and reads the op's
			// operands from these variables: a closure literal inside the
			// loop would be one heap object per operation.
			var (
				blockLine seer.Addr
				edges     []int
				lines     []seer.Addr
			)
			work := w.TxWork
			body := func(a seer.Access) {
				a.Store(blockLine, a.Load(blockLine)+1)
				for _, ei := range edges {
					el := lines[ei]
					a.Store(el, a.Load(el)+1)
				}
				a.Work(work)
				w.done.Add(a, 1)
				w.edgeMass.Add(a, uint64(len(edges)))
			}
			for n := 0; n < ops; n++ {
				// Phase by position in this worker's sequence: all
				// workers flip at (nearly) the same operation count.
				p := n * phases / ops
				b := rng.Intn(w.G.Blocks)
				blockLine = w.blockLines[b]
				edges = w.incident[p][b]
				lines = w.edgeLines[p]
				t.AtomicObj(b, uint64(b), body)
				if w.GapWork > 0 {
					t.Work(w.GapWork + uint64(rng.Intn(int(w.GapWork)+1)))
				}
			}
		}
	})
}

// Validate implements stamp.Workload: every committed op incremented
// exactly one block line, and the edge-line mass matches the in-tx
// bookkeeping — partial (aborted) increments would break either sum.
func (w *Workload) Validate(sys *seer.System) error {
	var blockSum uint64
	for _, bl := range w.blockLines {
		blockSum += sys.Peek(bl)
	}
	if blockSum != uint64(w.TotalOps) {
		return fmt.Errorf("%s: block-line increments %d, want %d ops", w.Name(), blockSum, w.TotalOps)
	}
	var edgeSum uint64
	for _, phase := range w.edgeLines {
		for _, el := range phase {
			edgeSum += sys.Peek(el)
		}
	}
	if mass := w.edgeMass.Sum(sys); edgeSum != mass {
		return fmt.Errorf("%s: edge-line increments %d, want %d", w.Name(), edgeSum, mass)
	}
	if done := w.done.Sum(sys); done != uint64(w.TotalOps) {
		return fmt.Errorf("%s: %d operations committed, want %d", w.Name(), done, w.TotalOps)
	}
	return nil
}
