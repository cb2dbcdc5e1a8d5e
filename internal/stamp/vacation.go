package stamp

import (
	"fmt"

	"seer"
	"seer/internal/tmds"
)

// Vacation models STAMP's travel-reservation system: four red-black-tree
// tables (cars, flights, rooms, customers) queried and updated by three
// kinds of client transactions. The high-contention variant concentrates
// queries on a narrow key range and does more work per transaction; the
// low variant spreads them out.
//
//	block 0 (reserve): read availability of several random items across
//	                   the tables and decrement one (medium footprint)
//	block 1 (delete):  remove a customer and release its reservation
//	block 2 (update):  add or restock items (table maintenance)
type Vacation struct {
	name                  string
	totalOps              int
	nItems                int
	queries               int
	rangePct              int // percentage of the key space queries touch
	reservePct, deletePct int

	cars, flights, rooms, customers *tmds.RBTree
	booked                          ThreadStats // successful reservations
	stock                           ThreadStats // stock adjustments
}

func init() {
	Register("vacation-high", func(scale float64) Workload {
		return NewVacation("vacation-high", scaled(4800, scale, 48), 256, 4, 8, 90, 5)
	})
	Register("vacation-low", func(scale float64) Workload {
		return NewVacation("vacation-low", scaled(4800, scale, 48), 256, 3, 15, 90, 5)
	})
}

// NewVacation builds a vacation instance.
func NewVacation(name string, totalOps, nItems, queries, rangePct, reservePct, deletePct int) *Vacation {
	return &Vacation{
		name: name, totalOps: totalOps, nItems: nItems,
		queries: queries, rangePct: rangePct,
		reservePct: reservePct, deletePct: deletePct,
	}
}

// Name implements Workload.
func (w *Vacation) Name() string { return w.name }

// NumAtomicBlocks implements Workload.
func (w *Vacation) NumAtomicBlocks() int { return 3 }

// MemWords implements Workload.
func (w *Vacation) MemWords() int {
	return w.nItems*4*8 + w.totalOps*10 + 1<<15
}

// Setup implements Workload.
func (w *Vacation) Setup(sys *seer.System) error {
	m := sys.Memory()
	arena := tmds.NewArena(m, (w.nItems*4+w.totalOps/2)*8+arenaSlack(sys), sys.HWThreads())
	w.cars = tmds.NewRBTree(m, arena)
	w.flights = tmds.NewRBTree(m, arena)
	w.rooms = tmds.NewRBTree(m, arena)
	w.customers = tmds.NewRBTree(m, arena)
	w.booked = NewThreadStats(sys)
	w.stock = NewThreadStats(sys)
	acc := rawSys{sys}
	for i := 0; i < w.nItems; i++ {
		k := uint64(i)
		w.cars.Insert(acc, k, 100)
		w.flights.Insert(acc, k, 100)
		w.rooms.Insert(acc, k, 100)
	}
	for i := 0; i < w.nItems/2; i++ {
		w.customers.Insert(acc, uint64(i), 0)
	}
	return nil
}

// tables returns the reservation tables for round-robin access.
func (w *Vacation) tables() []*tmds.RBTree {
	return []*tmds.RBTree{w.cars, w.flights, w.rooms}
}

// hotKey picks a key within the contended range.
func (w *Vacation) hotKey(rng *seer.Rand) uint64 {
	span := w.nItems * w.rangePct / 100
	if span < 1 {
		span = 1
	}
	return uint64(rng.Intn(span))
}

// Workers implements Workload.
func (w *Vacation) Workers(nThreads int) []seer.Worker {
	tables := w.tables()
	return PerThread(w.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker and read the op's operands
			// from these variables; the key list is reused across ops
			// (DESIGN §6c).
			var (
				tab  *tmds.RBTree
				k    uint64
				keys = make([]uint64, w.queries)
			)
			reserve := func(a seer.Access) {
				bestKey, bestVal := uint64(0), uint64(0)
				found := false
				for _, k := range keys {
					if v, ok := tab.Get(a, k); ok && v > 0 && (!found || v > bestVal) {
						bestKey, bestVal, found = k, v, true
					}
				}
				a.Work(110) // pricing and itinerary checks
				if found {
					tab.Update(a, bestKey, bestVal-1)
					w.booked.Add(a, 1)
				}
			}
			deleteCustomer := func(a seer.Access) {
				a.Work(70) // customer record bookkeeping
				if w.customers.Delete(a, k) {
					w.stock.Add(a, 1)
				} else {
					w.customers.Insert(a, k, 0)
				}
			}
			restock := func(a seer.Access) {
				v, ok := tab.Get(a, k)
				a.Work(60) // table maintenance
				if ok {
					tab.Update(a, k, v+1)
					w.stock.Add(a, 1)
				}
			}
			for n := 0; n < ops; n++ {
				r := rng.Intn(100)
				switch {
				case r < w.reservePct:
					// Reserve: query `queries` random items, book the
					// cheapest available one.
					for q := range keys {
						keys[q] = w.hotKey(rng)
					}
					tab = tables[rng.Intn(len(tables))]
					t.Atomic(0, reserve)
					t.Work(10)
				case r < w.reservePct+w.deletePct:
					// Delete customer (tree structural change).
					k = uint64(rng.Intn(w.nItems))
					t.Atomic(1, deleteCustomer)
					t.Work(10)
				default:
					// Update tables: restock an item.
					tab = tables[rng.Intn(len(tables))]
					k = uint64(rng.Intn(w.nItems))
					t.Atomic(2, restock)
					t.Work(10)
				}
			}
		}
	})
}

// Validate implements Workload.
func (w *Vacation) Validate(sys *seer.System) error {
	acc := rawSys{sys}
	// Stock conservation: initial stock − bookings + restocks(table part)
	// must equal the sum of remaining availability.
	var remaining uint64
	var restocks uint64
	booked := w.booked.Sum(sys)
	for _, tab := range w.tables() {
		if msg := tab.CheckInvariants(acc); msg != "" {
			return fmt.Errorf("%s: red-black invariants violated: %s", w.name, msg)
		}
		for _, k := range tab.Keys(acc, nil) {
			v, _ := tab.Get(acc, k)
			remaining += v
		}
	}
	if msg := w.customers.CheckInvariants(acc); msg != "" {
		return fmt.Errorf("%s: customers tree invalid: %s", w.name, msg)
	}
	initial := uint64(3 * w.nItems * 100)
	// stock counter counts customer deletes + restocks; recompute restocks
	// by inverting the identity below is impossible without separating
	// them, so check the weaker but still discriminating identity:
	// remaining + booked >= initial (restocks only add).
	if remaining+booked < initial {
		return fmt.Errorf("%s: stock leak: remaining %d + booked %d < initial %d",
			w.name, remaining, booked, initial)
	}
	restocks = remaining + booked - initial
	if restocks > w.stock.Sum(sys) {
		return fmt.Errorf("%s: restocks (%d) exceed stock-counter bound (%d)",
			w.name, restocks, w.stock.Sum(sys))
	}
	return nil
}
