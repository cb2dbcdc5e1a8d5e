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

// shardAlign is the shard-boundary alignment of the line-state table, in
// lineState entries. Eight 40-byte entries are 320 bytes — a whole number
// of 64-byte cache lines — so rounding each shard's stride up to a
// multiple of shardAlign keeps every shard starting on its own cache
// line: two shards never share a line of the registry itself.
const shardAlign = 8

// maxShards caps the shard count of the conflict registry.
const maxShards = 64

// Memory is the simulated shared memory.
//
// The conflict registry is a sharded table: cache line ln's state lives
// in shard ln & shardMask (a power-of-two hash on the low line bits) at
// slot ln >> shardShift. The shards are carved out of one flat backing
// array with a cache-line-aligned stride, so the mapping costs one
// multiply-add per access, stays allocation-free, and — because adjacent
// simulated lines land in different shards — the registry entries of a
// hot contiguous region stop sharing hardware cache lines with each
// other. With one shard (the default for narrow machines) the mapping
// degenerates to the identity and the table is exactly the old flat
// layout.
type Memory struct {
	words      []uint64
	lines      []lineState // sharded backing; index via slot()
	shardMask  uint32      // nShards - 1
	shardShift uint32      // log2(nShards)
	stride     uint32      // slots per shard (shardAlign-aligned)
	nLines     int
	brk        Addr // bump-allocation watermark
	doomer     Doomer
	access     AccessCostFunc // nil = uniform memory

	// specBarrier, when set, is invoked before every Peek. Peek is the one
	// shared read with no scheduling point of its own (spinlock.LockedFast
	// funnels through it), so under speculative quanta it must close the
	// running thread's quantum first: a speculated Peek would otherwise
	// read lock words before earlier-virtual-time threads have run. The
	// hook is nil unless speculation is enabled (see machine.Engine
	// SpecBarrier), and a no-op when no speculating thread is running.
	specBarrier func()
}

// slot maps a cache line to its index in the sharded line-state table.
func (m *Memory) slot(ln Line) uint32 {
	return (uint32(ln)&m.shardMask)*m.stride + uint32(ln)>>m.shardShift
}

// line returns the conflict-registry entry of a cache line.
func (m *Memory) line(ln Line) *lineState {
	return &m.lines[m.slot(ln)]
}

// New creates a memory of the given size in words, rounded up to a whole
// number of cache lines, with a single-shard (flat) conflict registry.
// Word 0 is reserved (Nil).
func New(words int) *Memory {
	return NewSharded(words, 1)
}

// NewSharded creates a memory whose conflict registry is split into the
// given number of cache-line-padded shards (rounded up to a power of
// two, clamped to [1, maxShards]). The shard count is pure data
// layout: every registry operation behaves identically — and every
// schedule is bit-for-bit identical — whatever the count (the registry
// is consulted between engine scheduling points only, so the mapping is
// invisible to simulated programs).
func NewSharded(words, shards int) *Memory {
	return NewRecycled(words, shards, nil)
}

// setShards fixes the shard geometry for nLines. shards is rounded up to
// a power of two and clamped to [1, maxShards].
func (m *Memory) setShards(shards int) {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	shift := uint32(0)
	for 1<<shift < shards {
		shift++
	}
	n := uint32(1) << shift
	m.shardMask = n - 1
	m.shardShift = shift
	// Slots per shard: enough for the highest slot index any line maps
	// to, rounded up so each shard starts on its own cache line.
	stride := (uint32(m.nLines-1) >> shift) + 1
	m.stride = (stride + shardAlign - 1) &^ (shardAlign - 1)
}

// Shards returns the conflict registry's shard count.
func (m *Memory) Shards() int { return int(m.shardMask) + 1 }

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

// Alloc bump-allocates n words and returns the address of the first.
// It panics when the memory is exhausted: simulated workloads size their
// memory up front.
func (m *Memory) Alloc(n int) Addr {
	if n <= 0 {
		panic("mem: Alloc with non-positive size")
	}
	a := m.brk
	if int(a)+n > len(m.words) {
		panic(fmt.Sprintf("mem: out of simulated memory (%d words requested, %d free)",
			n, len(m.words)-int(a)))
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

// Free returns the number of unallocated words remaining.
func (m *Memory) Free() int { return len(m.words) - int(m.brk) }

// checkAddr panics on out-of-range addresses: simulated programs have no
// MMU, so this is the closest analogue of a segmentation fault.
func (m *Memory) checkAddr(a Addr) {
	if int(a) >= len(m.words) {
		panic(fmt.Sprintf("mem: address %d out of range (%d words)", a, len(m.words)))
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

// LineReaders returns the reader set of a line (for tests and invariant
// checks).
func (m *Memory) LineReaders(ln Line) topology.Set { return m.line(ln).readers }

// LineWriter returns the writer of a line, or -1 (for tests and invariant
// checks).
func (m *Memory) LineWriter(ln Line) int { return int(m.line(ln).writer) }

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
