package stamp

import (
	"fmt"

	"seer"
	"seer/internal/tmds"
)

// Genome models STAMP's gene-sequencing benchmark. The original has three
// transactional phases: deduplicating DNA segments into a hash set,
// removing matched segments from a "starts" pool, and linking overlapping
// segments into growing chains. The port keeps the three atomic blocks
// and their footprints:
//
//	block 0 (dedup):  PutIfAbsent into a large hash set — long-ish
//	                  transactions, low conflict probability.
//	block 1 (match):  claim an entry in a bounded pool of chain "construction
//	                  sites" and extend it — moderate, localized conflicts.
//	block 2 (link):   splice two chains, updating shared chain metadata —
//	                  high self-conflict (the hotspot Seer learns).
type Genome struct {
	scale    float64
	totalOps int
	segSpace uint64
	buckets  int
	sites    int

	set      *tmds.HashMap
	siteTab  *tmds.Counters // per-site chain length (padded)
	chainLen seer.Addr      // global chain metadata line (hotspot)
	inserted ThreadStats
}

func init() {
	Register("genome", func(scale float64) Workload { return NewGenome(scale) })
}

// NewGenome builds a genome instance at the given scale.
func NewGenome(scale float64) *Genome {
	return &Genome{
		scale:    scale,
		totalOps: scaled(9600, scale, 96),
		segSpace: uint64(scaled(8192, scale, 128)),
		buckets:  scaled(1024, scale, 64),
		sites:    48,
	}
}

// Name implements Workload.
func (g *Genome) Name() string { return "genome" }

// NumAtomicBlocks implements Workload.
func (g *Genome) NumAtomicBlocks() int { return 3 }

// MemWords implements Workload.
func (g *Genome) MemWords() int {
	return g.buckets + 8*g.sites + int(g.segSpace)*4 + 1<<15
}

// Setup implements Workload.
func (g *Genome) Setup(sys *seer.System) error {
	arena := tmds.NewArena(sys.Memory(), int(g.segSpace)*3+arenaSlack(sys), sys.HWThreads())
	g.set = tmds.NewHashMap(sys.Memory(), g.buckets, arena)
	g.siteTab = tmds.NewCounters(sys.Memory(), g.sites)
	g.chainLen = sys.AllocLines(1)
	g.inserted = NewThreadStats(sys)
	return nil
}

// Workers implements Workload.
func (g *Genome) Workers(nThreads int) []seer.Worker {
	return PerThread(g.totalOps, nThreads, func(_, ops int) seer.Worker {
		return func(t *seer.Thread) {
			rng := t.Rand()
			// Bodies are built once per worker and read the op's operands
			// from these variables (DESIGN §6c).
			var (
				seg  uint64
				site int
			)
			dedup := func(a seer.Access) {
				present := g.set.Contains(a, seg)
				a.Work(130) // segment comparison
				if !present {
					g.set.PutIfAbsent(a, seg, seg)
					g.inserted.Add(a, 1)
				}
			}
			extend := func(a seer.Access) {
				_, _ = g.set.Get(a, seg)
				_ = a.Load(g.chainLen) // consult chain metadata
				a.Work(90)             // overlap matching
				g.siteTab.Add(a, site, 1)
			}
			splice := func(a seer.Access) {
				// Read the chain metadata up front: the read set is held
				// for the whole splice, as in the original's chain-walk
				// transactions.
				cur := a.Load(g.chainLen)
				n2 := a.Load(g.chainLen + 1)
				sl := g.siteTab.Get(a, site)
				a.Work(150) // chain splicing
				a.Store(g.chainLen, cur+sl%7+1)
				a.Store(g.chainLen+1, n2+1)
			}
			for n := 0; n < ops; n++ {
				switch r := rng.Intn(100); {
				case r < 62:
					// Dedup a random segment.
					seg = rng.Uint64() % g.segSpace
					t.Atomic(0, dedup)
					t.Work(10)
				case r < 80:
					// Extend a construction site: lookup + localized
					// update.
					seg = rng.Uint64() % g.segSpace
					site = rng.Intn(g.sites)
					t.Atomic(1, extend)
					t.Work(10)
				default:
					// Splice chains: hotspot on the global chain
					// metadata.
					site = rng.Intn(g.sites)
					t.Atomic(2, splice)
					t.Work(uint64(4 + rng.Intn(9)))
				}
			}
		}
	})
}

// Validate implements Workload.
func (g *Genome) Validate(sys *seer.System) error {
	acc := rawSys{sys}
	size := g.set.Size(acc)
	ins := g.inserted.Sum(sys)
	if size != ins {
		return fmt.Errorf("genome: set size %d != committed inserts %d", size, ins)
	}
	if size > g.segSpace {
		return fmt.Errorf("genome: set size %d exceeds segment space %d", size, g.segSpace)
	}
	// Every stored key must be a valid, unique segment.
	keys := g.set.Keys(acc, nil)
	seen := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		if k >= g.segSpace {
			return fmt.Errorf("genome: stored segment %d out of range", k)
		}
		if seen[k] {
			return fmt.Errorf("genome: duplicate segment %d survived dedup", k)
		}
		seen[k] = true
	}
	return nil
}

// rawSys adapts a System's Peek/Poke to mem.Access for validation walks.
type rawSys struct{ sys *seer.System }

func (r rawSys) Load(a seer.Addr) uint64     { return r.sys.Peek(a) }
func (r rawSys) Store(a seer.Addr, v uint64) { r.sys.Poke(a, v) }
func (r rawSys) Work(n uint64)               {}
func (r rawSys) ThreadID() int               { return 0 }
