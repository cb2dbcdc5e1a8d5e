package stamp

import (
	"fmt"

	"seer"
	"seer/internal/machine"
	"seer/internal/tmds"
)

// Labyrinth models STAMP's Lee-routing benchmark: threads claim routing
// requests from a shared priority queue (shortest estimated route first)
// and transactionally mark an entire path of grid cells. Path
// transactions touch dozens to hundreds of cache lines, so on best-effort
// HTM most of them exceed the write-set budget and deterministically fall
// back to the lock — which is exactly why the paper EXCLUDES labyrinth
// from its evaluation ("most of its transactions exceed TSX capacity").
// It is implemented and registered here for completeness but is not part
// of stamp.Suite.
//
//	block 0 (route): read+write every cell of an L-shaped path
//	block 1 (claim): pop the next request from the priority queue
type Labyrinth struct {
	totalOps   int
	gridDim    int
	queueSlots int // 0 means totalOps+1 (always sufficient)

	grid   seer.Addr // gridDim × gridDim cells, one line each
	queue  *tmds.Heap
	routed ThreadStats // cells marked by committed routes
	claims ThreadStats // requests claimed
}

func init() {
	Register("labyrinth", func(scale float64) Workload { return NewLabyrinth(scale) })
}

// NewLabyrinth builds a labyrinth instance at the given scale.
func NewLabyrinth(scale float64) *Labyrinth {
	return &Labyrinth{
		totalOps: scaled(600, scale, 12),
		gridDim:  48,
	}
}

// Name implements Workload.
func (w *Labyrinth) Name() string { return "labyrinth" }

// NumAtomicBlocks implements Workload.
func (w *Labyrinth) NumAtomicBlocks() int { return 2 }

// MemWords implements Workload.
func (w *Labyrinth) MemWords() int {
	return w.gridDim*w.gridDim*8 + w.totalOps*4 + 1<<13
}

func (w *Labyrinth) cell(x, y int) seer.Addr {
	return w.grid + seer.Addr((y*w.gridDim+x)*8)
}

// Setup implements Workload.
func (w *Labyrinth) Setup(sys *seer.System) error {
	m := sys.Memory()
	w.grid = sys.AllocLines(w.gridDim * w.gridDim)
	slots := w.queueSlots
	if slots == 0 {
		slots = w.totalOps + 1
	}
	w.queue = tmds.NewHeap(m, slots)
	w.routed = NewThreadStats(sys)
	w.claims = NewThreadStats(sys)
	// Pre-plan the routing requests: value encodes the endpoints,
	// priority is the Manhattan-distance estimate (shortest first).
	acc := rawSys{sys}
	rng := machine.NewRand(1234)
	for i := 0; i < w.totalOps; i++ {
		x1 := int(rng.Uint64() % uint64(w.gridDim))
		y1 := int(rng.Uint64() % uint64(w.gridDim))
		x2 := int(rng.Uint64() % uint64(w.gridDim))
		y2 := int(rng.Uint64() % uint64(w.gridDim))
		val := uint64(x1)<<24 | uint64(y1)<<16 | uint64(x2)<<8 | uint64(y2)
		dist := abs(x1-x2) + abs(y1-y2)
		if !w.queue.Push(acc, uint64(dist), val) {
			return fmt.Errorf("labyrinth: %d requests for %d slots: %w",
				w.totalOps, slots, ErrQueueTooSmall)
		}
	}
	return nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// pathLen returns the number of cells of the L-shaped route of a request.
func pathLen(val uint64) int {
	x1, y1 := int(val>>24&0xFF), int(val>>16&0xFF)
	x2, y2 := int(val>>8&0xFF), int(val&0xFF)
	return abs(x1-x2) + abs(y1-y2) + 1
}

// Workers implements Workload.
func (w *Labyrinth) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			// Bodies are built once per worker; operands and results
			// travel through these variables (DESIGN §6c).
			var (
				req            uint64
				ok             bool
				x1, y1, x2, y2 int
			)
			claim := func(a seer.Access) {
				_, req, ok = w.queue.Pop(a)
				if ok {
					w.claims.Add(a, 1)
				}
			}
			route := func(a seer.Access) {
				marked := uint64(0)
				step := func(x, y int) {
					c := w.cell(x, y)
					a.Store(c, a.Load(c)+1)
					marked++
				}
				x := x1
				for ; x != x2; x += sign(x2 - x) {
					step(x, y1)
				}
				for y := y1; y != y2; y += sign(y2 - y) {
					step(x2, y)
				}
				step(x2, y2)
				a.Work(uint64(30 + 2*marked)) // expansion cost
				w.routed.Add(a, marked)
			}
			for n := 0; n < ops; n++ {
				// Claim the next request (hot, small).
				t.Atomic(1, claim)
				if !ok {
					return
				}
				t.Work(25)

				// Route: mark every cell of the L-shaped path. The
				// whole path is one atomic region, as in Lee routing.
				x1, y1 = int(req>>24&0xFF), int(req>>16&0xFF)
				x2, y2 = int(req>>8&0xFF), int(req&0xFF)
				t.Atomic(0, route)
				t.Work(20)
			}
		}
	})
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// Validate implements Workload.
func (w *Labyrinth) Validate(sys *seer.System) error {
	if claims := w.claims.Sum(sys); claims != uint64(w.totalOps) {
		return fmt.Errorf("labyrinth: %d requests claimed, want %d", claims, w.totalOps)
	}
	var marks uint64
	for y := 0; y < w.gridDim; y++ {
		for x := 0; x < w.gridDim; x++ {
			marks += sys.Peek(w.cell(x, y))
		}
	}
	if routed := w.routed.Sum(sys); marks != routed {
		return fmt.Errorf("labyrinth: grid marks %d != routed cells %d", marks, routed)
	}
	return nil
}
