// Package stamp provides Go ports of the STAMP benchmarks used in the
// paper's evaluation (genome, intruder, kmeans high/low, ssca2, vacation
// high/low, yada — bayes and labyrinth are excluded exactly as in the
// paper), plus the low-contention hash-map microbenchmark of §5.3.
//
// The ports run on the simulated transactional memory through the public
// API (package seer) and preserve what the scheduler can observe of the
// originals: the number and identity of atomic blocks, their relative
// frequencies, read/write-set footprints, and the conflict structure
// between blocks. Absolute instruction counts are scaled down so a full
// parameter sweep runs in seconds of wall-clock time; DESIGN.md records
// the substitution argument.
//
// Workload implementations must respect the retry discipline of best-
// effort HTM: atomic-block bodies touch only simulated memory via the
// Access parameter (they may run several times), and all Go-side
// bookkeeping happens outside Atomic or is assign-only.
package stamp

import (
	"errors"
	"fmt"
	"sort"

	"seer"
	"seer/internal/tmds"
)

// Workload is one benchmark instance. The lifecycle is:
// New... → MemWords/NumAtomicBlocks (to size the system, see Config) →
// Setup → Workers → (System.Run) → Validate; Run drives it end to end.
type Workload interface {
	// Name is the benchmark's display name (matches the paper's
	// figures, e.g. "kmeans-high").
	Name() string
	// NumAtomicBlocks is the count of static atomic blocks, i.e. the
	// dimension of Seer's statistics matrices.
	NumAtomicBlocks() int
	// MemWords returns the simulated-memory size the workload needs.
	MemWords() int
	// Setup allocates and initializes shared state on sys. It returns an
	// error when the instance cannot be built at this size (for example
	// ErrQueueTooSmall) rather than panicking.
	Setup(sys *seer.System) error
	// Workers returns one worker body per thread, partitioning the
	// workload's total operations across nThreads.
	Workers(nThreads int) []seer.Worker
	// Validate checks post-run invariants on the simulated state,
	// returning an error describing any violation.
	Validate(sys *seer.System) error
}

// Factory builds a fresh workload instance at the given scale (1.0 is the
// default size; the harness uses smaller scales for quick runs). Each run
// needs a fresh instance because workloads hold simulated addresses.
type Factory func(scale float64) Workload

var registry = map[string]Factory{}

// Register installs a workload factory under its canonical name.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("stamp: duplicate workload %q", name))
	}
	registry[name] = f
}

// New builds workload name at the given scale.
func New(name string, scale float64) (Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("stamp: unknown workload %q (have %v)", name, Names())
	}
	if scale <= 0 {
		scale = 1
	}
	return f(scale), nil
}

// Names lists the registered workloads in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Suite is the STAMP subset of the paper's Figure 3 / Table 3, in the
// paper's presentation order.
var Suite = []string{
	"genome", "intruder", "kmeans-high", "kmeans-low",
	"ssca2", "vacation-high", "vacation-low", "yada",
}

// ErrQueueTooSmall reports a workload whose operation pre-plan outgrew
// its fixed-capacity transactional queue — a sizing error in the
// instance parameters, returned by Setup instead of panicking.
var ErrQueueTooSmall = errors.New("stamp: queue sized too small")

// arenaSlack returns the fixed arena headroom of the legacy 8-thread
// testbed plus two refill chunks for every additional hardware thread:
// each thread parks up to one partially filled chunk, and the rest keeps
// the master cursor from running dry on wide machines. At 8 or fewer
// hardware threads it is exactly the historical 8192 words, which pins
// pre-topology arena layouts (and so the exhibits) byte-for-byte.
func arenaSlack(sys *seer.System) int {
	const base = 8192
	if hw := sys.HWThreads(); hw > 8 {
		return base + (hw-8)*2*tmds.ChunkWords
	}
	return base
}

// split partitions total operations across n workers, giving earlier
// workers the remainder (deterministic).
func split(total, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
	}
	for i := 0; i < total%n; i++ {
		out[i]++
	}
	return out
}

// scaled returns base scaled, with a floor of lo.
func scaled(base int, scale float64, lo int) int {
	v := int(float64(base) * scale)
	if v < lo {
		return lo
	}
	return v
}

// minStatLines is the historical floor of the per-thread stat arrays.
// Machines up to 64 threads keep exactly this allocation so simulated
// memory layouts — and therefore all pre-topology exhibit outputs —
// are unchanged; larger machines grow the array to one line per thread.
const minStatLines = 64

// threadStats is a per-hardware-thread padded counter in simulated
// memory: workload bookkeeping that must not become a cross-thread
// conflict hotspot (the analogue of STAMP's thread-local statistics).
type threadStats struct {
	base seer.Addr
	n    int // allocated slots
}

func newThreadStats(sys *seer.System) threadStats {
	n := minStatLines
	if hw := sys.HWThreads(); hw > n {
		n = hw
	}
	return threadStats{base: sys.AllocLines(n), n: n}
}

func (s threadStats) slot(a seer.Access) seer.Addr {
	return s.base + seer.Addr(a.ThreadID()*8)
}

// add bumps the calling thread's slot by d (inside a transaction this is
// conflict-free: the line is private to the thread).
func (s threadStats) add(a seer.Access, d uint64) {
	p := s.slot(a)
	a.Store(p, a.Load(p)+d)
}

// sum folds all slots (post-run, outside transactions). Wrapping
// arithmetic makes mixed add/subtract bookkeeping sum to the correct net
// value.
func (s threadStats) sum(sys *seer.System) uint64 {
	var total uint64
	for i := 0; i < s.n; i++ {
		total += sys.Peek(s.base + seer.Addr(i*8))
	}
	return total
}
