// Package mem implements the simulated word-addressable shared memory of
// the virtual machine, including the per-cache-line registry used by the
// simulated HTM (internal/htm) for conflict detection.
//
// Memory is an array of 64-bit words grouped into 64-byte cache lines
// (8 words). Each line tracks which hardware threads currently hold it in
// a transactional read set (a bitmask) and which single thread, if any,
// holds it in a transactional write set. The HTM consults and updates this
// registry on every transactional access; non-transactional (direct)
// accesses also consult it to provide the strong isolation of real
// hardware TM: a plain store dooms every transaction that has the line in
// its read or write set, and a plain load dooms a transactional writer.
//
// All methods are called only between engine scheduling points, so the
// package needs no synchronization (see internal/machine).
package mem

import (
	"errors"
	"fmt"

	"seer/internal/topology"
)

// LineWords is the number of 64-bit words per cache line (64-byte lines).
const LineWords = 8

// Addr is a word address in simulated memory.
type Addr uint32

// Nil is the null address. Word 0 is reserved so data structures can use
// Nil as a null pointer.
const Nil Addr = 0

// Line is a cache-line index.
type Line uint32

// Access is the uniform accessor through which workload code touches
// simulated memory. It is implemented both by hardware transactions
// (htm.Tx) and by the non-transactional Direct accessor, so a transaction
// body runs unmodified on the HTM path and on the single-global-lock
// fall-back path.
type Access interface {
	Load(Addr) uint64
	Store(Addr, uint64)
	// Work simulates n units of in-critical-section computation.
	Work(n uint64)
	// ThreadID identifies the hardware thread performing the accesses;
	// sharded allocators use it to avoid cross-thread hotspots.
	ThreadID() int
}

// LineOf returns the cache line containing a word address.
func LineOf(a Addr) Line { return Line(a / LineWords) }

// Doomer is implemented by the HTM unit: the memory calls it to abort
// transactions whose read/write sets are invalidated by a conflicting
// access. ln is the contended cache line — the ground truth the
// attribution sink (internal/telemetry) records, which real hardware
// never reveals.
type Doomer interface {
	// DoomReaders dooms every transaction in the readers set except the
	// one running on hardware thread self (pass self = -1 to doom all).
	// The set is passed by value on purpose: dooming a reader clears its
	// registry bits, so the callee must iterate a snapshot.
	DoomReaders(readers topology.Set, self int, ln Line)
	// DoomWriter dooms the transaction running on hardware thread
	// writer unless writer == self.
	DoomWriter(writer int, self int, ln Line)
}

// AccessCostFunc returns extra virtual cycles for hardware thread hw
// touching cache line ln — the hook the topology layer uses to charge
// cross-socket (NUMA) accesses more than local ones. It must be pure:
// the same (hw, ln) always costs the same, or determinism breaks.
type AccessCostFunc func(hw int, ln Line) uint64

// lineState is the conflict registry entry for one cache line.
type lineState struct {
	readers topology.Set // hardware threads with the line in a read set
	writer  int16        // hardware thread with the line in a write set, -1 if none
}

// Memory is the simulated shared memory. Its conflict registry is one
// flat table with an entry per cache line, indexed by line number.
//
// Host memory backs only the prefix of lines the program has touched:
// words and lines grow together (cover) when an access first reaches
// past them, so a memory configured far larger than its program uses
// costs host memory only for what is used. Addresses, the allocator and
// the out-of-range fault all keep the configured size.
type Memory struct {
	words  []uint64    // backing store of the touched prefix, len(lines) lines
	lines  []lineState // conflict registry, one entry per touched cache line
	size   int         // configured size in words, a whole number of lines
	brk    Addr        // bump-allocation watermark
	doomer Doomer
	access AccessCostFunc // nil = uniform memory

	// specBarrier, when set, is invoked before every Peek. Peek is the one
	// shared read with no scheduling point of its own (spinlock.LockedFast
	// funnels through it), so under speculative quanta it must close the
	// running thread's quantum first: a speculated Peek would otherwise
	// read lock words before earlier-virtual-time threads have run. Every
	// seer.System installs it (machine.Engine.SpecBarrier); it is a no-op
	// when no speculating thread is running, and nil on a bare Memory.
	specBarrier func()
}

// line returns the conflict-registry entry of a cache line.
func (m *Memory) line(ln Line) *lineState {
	return &m.lines[ln]
}

// New creates a memory of the given size in words, rounded up to a whole
// number of cache lines. Word 0 is reserved (Nil).
func New(words int) *Memory {
	return NewRecycled(words, 1, nil)
}

// NewSharded is New; shards is ignored, since the registry has one
// layout. It stays only because benchmark/layers.go calls it (ROADMAP
// item 1(b)).
func NewSharded(words, shards int) *Memory {
	return New(words)
}

// SetDoomer installs the HTM unit that receives conflict notifications.
// It must be called before any transactional line registration.
func (m *Memory) SetDoomer(d Doomer) { m.doomer = d }

// SetAccessCost installs (or clears, with nil) the per-access extra-cost
// hook. Accessors consult it on every load and store, so with the hook
// unset the overhead is one nil check.
func (m *Memory) SetAccessCost(fn AccessCostFunc) { m.access = fn }

// AccessCost returns the extra virtual cycles the installed hook charges
// hardware thread hw for touching the line of address a (0 when no hook
// is installed).
func (m *Memory) AccessCost(hw int, a Addr) uint64 {
	if m.access == nil {
		return 0
	}
	return m.access(hw, LineOf(a))
}

// Named simulated-memory faults, matchable with errors.Is. Alloc and every
// address check panic with an error wrapping one of them. Inside a run the
// engine recovers the panic and the run fails with an error wrapping it
// (machine.Engine.Run); outside a run — while a program sets up its data —
// the panic propagates to the caller.
var (
	ErrOutOfMemory = errors.New("mem: out of simulated memory")
	ErrBadAddress  = errors.New("mem: address out of range")
)

// Alloc bump-allocates n words and returns the address of the first.
// It panics with an error wrapping ErrOutOfMemory when the memory is
// exhausted: simulated workloads size their memory up front.
func (m *Memory) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	a := m.brk
	if int(a)+n > m.size {
		panic(fmt.Errorf("%w (%d words requested, %d free)", ErrOutOfMemory, n, m.size-int(a)))
	}
	m.brk += Addr(n)
	return a
}

// AllocLines allocates n whole cache lines, aligned to a line boundary.
// Data structures use it to avoid unintended false sharing.
func (m *Memory) AllocLines(n int) Addr {
	if n <= 0 {
		panic("mem: AllocLines with non-positive size")
	}
	// Align brk up to a line boundary.
	rem := m.brk % LineWords
	if rem != 0 {
		m.brk += LineWords - rem
	}
	return m.Alloc(n * LineWords)
}

// AllocAligned allocates n words starting at a line boundary.
func (m *Memory) AllocAligned(n int) Addr {
	lines := (n + LineWords - 1) / LineWords
	return m.AllocLines(lines)
}

// Free returns the number of unallocated words remaining in the
// configured size, however little of it host memory backs yet.
func (m *Memory) Free() int { return m.size - int(m.brk) }

// checkAddr makes address a backed before an access: a word past the
// touched prefix goes through the out-of-line cover, so the in-range
// path stays one compare.
func (m *Memory) checkAddr(a Addr) {
	if int(a) >= len(m.words) {
		m.cover(a)
	}
}

// minCoverLines is the smallest backing allocation, in lines. Growth
// doubles from it, so a cell reallocates O(log) times; a smaller first
// chunk made the registry's own benchmark slower on its tiny arrays.
const minCoverLines = 512

// cover extends the touched prefix through the line of a. Words it adds
// read zero and lines it adds are unregistered, whether the arrays are
// re-sliced within their capacity (a recycled buffer still holds an
// earlier memory's bytes there) or reallocated. An address at or past the
// configured size panics with an error wrapping ErrBadAddress: simulated
// programs have no MMU, so this is the closest analogue of a
// segmentation fault. A Doomer must not reach it: the registry accessors
// hold a *lineState across their doom calls, which a reallocation would
// leave pointing into the old table.
func (m *Memory) cover(a Addr) {
	if int(a) >= m.size {
		panic(fmt.Errorf("%w: %d (%d words)", ErrBadAddress, a, m.size))
	}
	n := int(LineOf(a)) + 1
	if n > cap(m.lines) || n*LineWords > cap(m.words) {
		c := min(max(n, 2*cap(m.lines), minCoverLines), m.size/LineWords)
		m.words = append(make([]uint64, 0, c*LineWords), m.words...)
		m.lines = append(make([]lineState, 0, c), m.lines...)
	}
	old := len(m.lines)
	m.words = m.words[:n*LineWords]
	clear(m.words[old*LineWords:])
	m.lines = m.lines[:n]
	for i := old; i < n; i++ {
		m.lines[i] = lineState{writer: -1}
	}
}

// --- Raw access (simulator-internal; no coherence side effects) ---

// SetSpecBarrier installs the speculation barrier consulted by Peek (see
// the field comment). Pass nil to remove it.
func (m *Memory) SetSpecBarrier(fn func()) { m.specBarrier = fn }

// Peek reads a word without any conflict-registry side effects. It is for
// simulator components and tests, not for simulated programs — and for
// tickless polling reads like spinlock.LockedFast, which is why it carries
// the speculation barrier.
func (m *Memory) Peek(a Addr) uint64 {
	if m.specBarrier != nil {
		m.specBarrier()
	}
	m.checkAddr(a)
	return m.words[a]
}

// Poke writes a word without any conflict-registry side effects.
func (m *Memory) Poke(a Addr, v uint64) {
	m.checkAddr(a)
	m.words[a] = v
}

// --- Direct (non-transactional) access with strong isolation ---

// DirectLoad performs a non-transactional load. A transactional writer of
// the line is doomed (its write buffer was never globally visible, so the
// value returned is the committed one).
func (m *Memory) DirectLoad(self int, a Addr) uint64 {
	m.checkAddr(a)
	ln := LineOf(a)
	ls := m.line(ln)
	if ls.writer >= 0 && int(ls.writer) != self {
		m.doomer.DoomWriter(int(ls.writer), self, ln)
	}
	return m.words[a]
}

// DirectStore performs a non-transactional store, dooming every
// transaction holding the line in its read or write set (strong
// isolation, as in real best-effort HTM).
func (m *Memory) DirectStore(self int, a Addr, v uint64) {
	m.checkAddr(a)
	ln := LineOf(a)
	ls := m.line(ln)
	if !ls.readers.Empty() {
		m.doomer.DoomReaders(ls.readers, self, ln)
	}
	if ls.writer >= 0 && int(ls.writer) != self {
		m.doomer.DoomWriter(int(ls.writer), self, ln)
	}
	m.words[a] = v
}

// --- Transactional line registry (called by internal/htm) ---

// RegisterRead adds hardware thread hw as a reader of the line holding a,
// dooming a conflicting transactional writer (requester wins). It returns
// grew = true if the line was not yet in hw's read set (i.e. the read set
// got bigger), and ownWrite = true if hw itself holds the line in its
// write set — such lines are already accounted for by the write-set budget
// and must not count against the read budget a second time.
//
// The two booleans exist so the HTM can maintain exact read/write line
// counters without any per-transaction membership map: the registry entry
// itself is the authoritative set representation.
func (m *Memory) RegisterRead(hw int, a Addr) (grew, ownWrite bool) {
	m.checkAddr(a)
	ln := LineOf(a)
	ls := m.line(ln)
	if ls.writer >= 0 && int(ls.writer) != hw {
		m.doomer.DoomWriter(int(ls.writer), hw, ln)
	}
	ownWrite = int(ls.writer) == hw
	if ls.readers.Has(hw) {
		return false, ownWrite
	}
	ls.readers.Add(hw)
	return true, ownWrite
}

// RegisterWrite makes hardware thread hw the transactional writer of the
// line holding a, dooming conflicting readers and a conflicting writer
// (requester wins). It returns grew = true if the line was not yet in hw's
// write set, and wasReader = true if hw already holds the line in its read
// set — such lines are already recorded in the transaction's line list and
// must not be recorded again.
func (m *Memory) RegisterWrite(hw int, a Addr) (grew, wasReader bool) {
	m.checkAddr(a)
	ln := LineOf(a)
	ls := m.line(ln)
	otherReaders := ls.readers // value copy; safe to pass while doom mutates ls
	otherReaders.Remove(hw)
	if !otherReaders.Empty() {
		m.doomer.DoomReaders(otherReaders, hw, ln)
	}
	if ls.writer >= 0 && int(ls.writer) != hw {
		m.doomer.DoomWriter(int(ls.writer), hw, ln)
	}
	wasReader = ls.readers.Has(hw)
	if int(ls.writer) == hw {
		return false, wasReader
	}
	ls.writer = int16(hw)
	return true, wasReader
}

// Unregister removes hardware thread hw from the registry entries of the
// given lines (both reader bit and writership). Called by the HTM when a
// transaction commits or aborts.
func (m *Memory) Unregister(hw int, lines []Line) {
	for _, ln := range lines {
		ls := m.line(ln)
		ls.readers.Remove(hw)
		if int(ls.writer) == hw {
			ls.writer = -1
		}
	}
}

// LineReaders returns the reader set of a line, empty for a line never
// touched (for tests and invariant checks).
func (m *Memory) LineReaders(ln Line) topology.Set {
	if int(ln) >= len(m.lines) {
		return topology.Set{}
	}
	return m.line(ln).readers
}

// LineWriter returns the writer of a line, or -1, as for a line never
// touched (for tests and invariant checks).
func (m *Memory) LineWriter(ln Line) int {
	if int(ln) >= len(m.lines) {
		return -1
	}
	return int(m.line(ln).writer)
}

// Direct is a non-transactional accessor bound to one hardware thread,
// implementing the same Access interface as a hardware transaction so that
// workload code can run on either path (HTM or single-global-lock
// fall-back).
type Direct struct {
	m        *Memory
	hw       int
	tick     func(cost uint64)
	workTick func(cost uint64)
	cost     struct{ load, store, work uint64 }
}

// NewDirect creates a direct accessor for hardware thread hw. tick is the
// thread's virtual-time advance function; loadCost/storeCost come from the
// machine's cost model. Work ticks use the same function until
// SetWorkTick installs a dedicated one.
func NewDirect(m *Memory, hw int, tick func(uint64), loadCost, storeCost, workCost uint64) *Direct {
	d := &Direct{m: m, hw: hw, tick: tick, workTick: tick}
	d.cost.load = loadCost
	d.cost.store = storeCost
	d.cost.work = workCost
	return d
}

// SetWorkTick installs a dedicated virtual-time advance for Work ticks.
// Work touches no shared simulator state, so its ticks are pure in the
// engine's sense: the policy layer points this at machine.Ctx.TickPure,
// making non-transactional compute stretches eligible for speculative
// multi-tick quanta while loads and stores keep the plain (impure) tick.
func (d *Direct) SetWorkTick(fn func(uint64)) { d.workTick = fn }

// Load reads a word non-transactionally. Cross-socket lines may carry
// an extra access cost (see SetAccessCost).
func (d *Direct) Load(a Addr) uint64 {
	d.tick(d.cost.load + d.m.AccessCost(d.hw, a))
	return d.m.DirectLoad(d.hw, a)
}

// Store writes a word non-transactionally.
func (d *Direct) Store(a Addr, v uint64) {
	d.tick(d.cost.store + d.m.AccessCost(d.hw, a))
	d.m.DirectStore(d.hw, a, v)
}

// Work simulates n units of computation on the owning thread.
func (d *Direct) Work(n uint64) {
	if n > 0 {
		d.workTick(n * d.cost.work)
	}
}

// ThreadID returns the owning hardware thread.
func (d *Direct) ThreadID() int { return d.hw }

// Compile-time check: Direct satisfies Access.
var _ Access = (*Direct)(nil)
