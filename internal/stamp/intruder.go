package stamp

import (
	"fmt"

	"seer"
	"seer/internal/machine"
	"seer/internal/tmds"
)

// Intruder models STAMP's network-intrusion-detection benchmark. The
// original pipeline has three transactional stages per packet: capture
// (pop from a shared packet queue), reassembly (insert the fragment into
// a shared session dictionary), and flagging completed nSessions into a
// detection queue. The two queue stages hammer a single queue header each
// (short, very conflict-prone transactions); reassembly is moderate.
//
//	block 0 (capture):    pop from the packet queue (hot)
//	block 1 (reassemble): session-map insert/update (moderate)
//	block 2 (flag):       push to the detection queue (hot)
type Intruder struct {
	scale     float64
	totalOps  int
	nSessions int
	buckets   int

	packets    *tmds.Queue
	flagged    *tmds.Queue
	sessionTab *tmds.HashMap
	popped     ThreadStats // successful pops
	pushed     ThreadStats // successful flag pushes
}

func init() {
	Register("intruder", func(scale float64) Workload { return NewIntruder(scale) })
}

// NewIntruder builds an intruder instance at the given scale.
func NewIntruder(scale float64) *Intruder {
	return &Intruder{
		scale:    scale,
		totalOps: scaled(7200, scale, 72),
		// The session table's size is contention-critical and therefore
		// scale-invariant: chains stay ~32 entries long, so reassembly
		// transactions collide at the same rate at every scale.
		nSessions: 384,
		buckets:   12,
	}
}

// Name implements Workload.
func (w *Intruder) Name() string { return "intruder" }

// NumAtomicBlocks implements Workload.
func (w *Intruder) NumAtomicBlocks() int { return 3 }

// MemWords implements Workload.
func (w *Intruder) MemWords() int {
	return w.totalOps*6 + w.buckets + w.nSessions*6 + 1<<15
}

// Setup implements Workload.
func (w *Intruder) Setup(sys *seer.System) error {
	m := sys.Memory()
	w.packets = tmds.NewQueue(m, w.totalOps+2)
	w.flagged = tmds.NewQueue(m, w.totalOps+2)
	arena := tmds.NewArena(m, w.totalOps*4+arenaSlack(sys), sys.HWThreads())
	w.sessionTab = tmds.NewHashMap(m, w.buckets, arena)
	w.popped = NewThreadStats(sys)
	w.pushed = NewThreadStats(sys)
	// Pre-capture the packet trace: every op pops exactly one packet.
	acc := rawSys{sys}
	rng := machine.NewRand(42)
	for i := 0; i < w.totalOps; i++ {
		sess := rng.Uint64() % uint64(w.nSessions)
		frag := rng.Uint64() % 16
		if !w.packets.Push(acc, sess<<8|frag) {
			panic("intruder: packet queue sized too small")
		}
	}
	return nil
}

// Workers implements Workload.
func (w *Intruder) Workers(nThreads int) []seer.Worker {
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker; operands and results
			// travel through these variables (DESIGN §6c).
			var (
				pkt, sess    uint64
				ok, complete bool
			)
			capture := func(a seer.Access) {
				pkt, ok = w.packets.Pop(a)
				a.Work(8) // header checks
				if ok {
					w.popped.Add(a, 1)
				}
			}
			reassemble := func(a seer.Access) {
				cnt, _ := w.sessionTab.Get(a, sess)
				a.Work(200) // fragment reassembly
				cnt++
				complete = cnt%8 == 0
				if complete {
					// Completed session: remove it from the resident
					// table (the unlink rewrites the bucket chain,
					// conflicting with concurrent walkers) and carry
					// the count in the flag queue entry instead.
					w.sessionTab.Delete(a, sess)
				} else {
					w.sessionTab.Put(a, sess, cnt)
				}
			}
			detect := func(a seer.Access) {
				a.Work(30) // signature check
				if w.flagged.Push(a, sess<<8|8) {
					w.pushed.Add(a, 1)
				}
			}
			for n := 0; n < ops; n++ {
				// Capture: pop one packet.
				t.Atomic(0, capture)
				if !ok {
					// Trace exhausted (only possible through races
					// in partitioning; never expected).
					return
				}
				t.Work(uint64(22 + rng.Intn(17))) // decode outside the capture txn

				// Reassembly: account the fragment to its session.
				sess = pkt >> 8
				t.Atomic(1, reassemble)
				t.Work(uint64(6 + rng.Intn(9)))

				// Detection: flag completed sessions.
				if complete {
					t.Atomic(2, detect)
					t.Work(5)
				}
			}
		}
	})
}

// Validate implements Workload.
func (w *Intruder) Validate(sys *seer.System) error {
	acc := rawSys{sys}
	popped := w.popped.Sum(sys)
	if popped != uint64(w.totalOps) {
		return fmt.Errorf("intruder: popped %d packets, want %d", popped, w.totalOps)
	}
	if !w.packets.Empty(acc) {
		return fmt.Errorf("intruder: packet queue not drained (%d left)", w.packets.Len(acc))
	}
	// Fragment conservation: residual session counters plus the
	// fragments carried by completed (deleted) sessions must sum to the
	// trace size.
	var sum uint64
	for _, k := range w.sessionTab.Keys(acc, nil) {
		v, _ := w.sessionTab.Get(acc, k)
		sum += v
	}
	for i := 0; i < w.flagged.Len(acc); i++ {
		sum += 8 // each flagged entry accounts for 8 reassembled fragments
	}
	if sum != uint64(w.totalOps) {
		return fmt.Errorf("intruder: session fragments sum to %d, want %d", sum, w.totalOps)
	}
	if got := uint64(w.flagged.Len(acc)); got != w.pushed.Sum(sys) {
		return fmt.Errorf("intruder: flagged queue has %d, pushed counter says %d",
			got, w.pushed.Sum(sys))
	}
	return nil
}
