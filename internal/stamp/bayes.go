package stamp

import (
	"fmt"

	"seer"
	"seer/internal/tmds"
)

// Bayes models STAMP's Bayesian-network structure learner: threads
// repeatedly propose a dependency edge between two variables, score the
// candidate against cached sufficient statistics, and — if it improves
// the network — insert it, keeping per-variable parent lists and a global
// score. The amount of scoring work depends on the (random) parent sets,
// so execution times are highly variable between runs; this is why the
// paper EXCLUDES bayes from its evaluation ("given its non-deterministic
// executions"). It is implemented and registered for completeness but is
// not part of stamp.Suite.
//
//	block 0 (score+insert): read both variables' parent lists, compute
//	                        the score delta, insert the edge
//	block 1 (query):        adtree-style read of a variable's statistics
type Bayes struct {
	totalOps  int
	nVars     int
	maxParent int

	// Per variable, one line: [0] parent count, [1..6] parent ids.
	vars  seer.Addr
	edges *tmds.HashMap // (u<<16|v) → 1, the inserted edge set
	score seer.Addr     // global network score (hot)
	ins   ThreadStats   // committed insertions
}

func init() {
	Register("bayes", func(scale float64) Workload { return NewBayes(scale) })
}

// NewBayes builds a bayes instance at the given scale.
func NewBayes(scale float64) *Bayes {
	return &Bayes{
		totalOps:  scaled(2400, scale, 48),
		nVars:     48,
		maxParent: 6,
	}
}

// Name implements Workload.
func (w *Bayes) Name() string { return "bayes" }

// NumAtomicBlocks implements Workload.
func (w *Bayes) NumAtomicBlocks() int { return 2 }

// MemWords implements Workload.
func (w *Bayes) MemWords() int {
	return w.nVars*8 + w.totalOps*4 + 1<<13
}

func (w *Bayes) varAddr(v int) seer.Addr { return w.vars + seer.Addr(v*8) }

// Setup implements Workload.
func (w *Bayes) Setup(sys *seer.System) error {
	m := sys.Memory()
	w.vars = sys.AllocLines(w.nVars)
	arena := tmds.NewArena(m, w.totalOps*3+arenaSlack(sys), sys.HWThreads())
	w.edges = tmds.NewHashMap(m, 128, arena)
	w.score = sys.AllocLines(1)
	w.ins = NewThreadStats(sys)
	return nil
}

// Workers implements Workload.
func (w *Bayes) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker and read the op's operands
			// from these variables (see DESIGN §6c: a closure literal
			// inside the loop is one heap object per operation).
			var (
				u, v int
				key  uint64
			)
			// Propose edge u→v: read both parent lists, score (cost grows
			// with the parent sets — the source of bayes' run-to-run
			// variance), then maybe insert.
			propose := func(a seer.Access) {
				pu := a.Load(w.varAddr(u))
				pv := a.Load(w.varAddr(v))
				// Scoring cost scales with the parent sets.
				a.Work(40 + 25*(pu+pv))
				if pv < uint64(w.maxParent) && !w.edges.Contains(a, key) {
					w.edges.Put(a, key, 1)
					a.Store(w.varAddr(v)+1+seer.Addr(pv), uint64(u))
					a.Store(w.varAddr(v), pv+1)
					a.Store(w.score, a.Load(w.score)+pu+1)
					w.ins.Add(a, 1)
				}
			}
			// Query sufficient statistics (read-mostly).
			query := func(a seer.Access) {
				p := a.Load(w.varAddr(u))
				var sum uint64
				for j := uint64(0); j < p; j++ {
					sum += a.Load(w.varAddr(u) + 1 + seer.Addr(j))
				}
				a.Work(30 + 10*p)
				_ = sum
			}
			for n := 0; n < ops; n++ {
				u = rng.Intn(w.nVars)
				v = rng.Intn(w.nVars)
				if u == v {
					v = (v + 1) % w.nVars
				}
				if rng.Bool(0.6) {
					key = uint64(u)<<16 | uint64(v)
					t.Atomic(0, propose)
				} else {
					t.Atomic(1, query)
				}
				t.Work(uint64(8 + rng.Intn(9)))
			}
		}
	})
}

// Validate implements Workload.
func (w *Bayes) Validate(sys *seer.System) error {
	acc := rawSys{sys}
	inserted := w.ins.Sum(sys)
	if got := w.edges.Size(acc); got != inserted {
		return fmt.Errorf("bayes: edge set has %d, committed inserts %d", got, inserted)
	}
	// Parent counts must sum to the edge count and stay within bounds.
	var parents uint64
	for v := 0; v < w.nVars; v++ {
		p := sys.Peek(w.varAddr(v))
		if p > uint64(w.maxParent) {
			return fmt.Errorf("bayes: variable %d has %d parents (max %d)", v, p, w.maxParent)
		}
		parents += p
	}
	if parents != inserted {
		return fmt.Errorf("bayes: parent slots %d != inserted edges %d", parents, inserted)
	}
	return nil
}
