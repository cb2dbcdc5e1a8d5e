// Package tmds provides transactional data structures laid out in the
// simulated memory: a hash set/map, a red-black tree, a FIFO queue and
// padded accumulator arrays. All operations are expressed against
// mem.Access, so the same code runs inside hardware transactions and on
// the single-global-lock fall-back path.
//
// The STAMP-style workloads (internal/stamp) are built from these, the
// same way the original C benchmarks are built from libtm's collections.
//
// Layout conventions: every structure stores its header on a dedicated
// cache line (AllocLines) to avoid false sharing between structure
// metadata and unrelated allocations; node layouts are documented per
// type. Allocation happens at setup time or through the Arena, a
// transaction-safe allocator sharded per hardware thread.
package tmds

import (
	"seer/internal/mem"
)

// arenaShards is the minimum per-thread shard-table size (matches
// the machine package's 64-thread limit).
const arenaShards = 64

// arenaChunk is the number of words a shard grabs from the master cursor
// at a time. Refills are rare, so the master line is touched too
// infrequently to become a conflict hotspot — the simulated analogue of a
// thread-caching malloc, which the C STAMP benchmarks rely on.
const arenaChunk = 512

// ChunkWords is the arena refill granularity in words; workload sizing
// uses it to budget per-thread slack on large machines.
const ChunkWords = arenaChunk

// Arena is a transactional allocator. Each hardware thread bump-allocates
// from a private chunk (its shard line holds [cursor, chunkEnd]); when a
// chunk runs out the shard refills from the shared master cursor. All
// cursors live in simulated memory, so allocations made inside aborted
// transactions are rolled back with the rest of the write set.
type Arena struct {
	master  mem.Addr // line: [0] master cursor
	shards  mem.Addr // one line per hardware thread: [0] cursor, [1] end
	nshards int
	limit   mem.Addr
}

// NewArena carves a transactional arena of size words out of m, serving
// hardware threads [0, threads). The shard table is never smaller than
// the legacy 64 lines, which pins the memory layout — and therefore the
// line-sharing pattern — of every pre-topology machine shape.
func NewArena(m *mem.Memory, size, threads int) *Arena {
	a := &Arena{nshards: threads}
	if a.nshards < arenaShards {
		a.nshards = arenaShards
	}
	a.master = m.AllocLines(1)
	a.shards = m.AllocLines(a.nshards)
	base := m.AllocAligned(size)
	m.Poke(a.master, uint64(base))
	a.limit = base + mem.Addr(size)
	return a
}

// shardAddr returns the shard line of the accessor's hardware thread.
func (a *Arena) shardAddr(acc mem.Access) mem.Addr {
	tid := acc.ThreadID()
	if tid < 0 || tid >= a.nshards {
		tid = 0
	}
	return a.shards + mem.Addr(tid)*mem.LineWords
}

// Alloc reserves n words from the accessor thread's shard, refilling from
// the master cursor when the private chunk is exhausted. It panics when
// the arena is out of memory (workloads are sized up front, as in STAMP).
func (a *Arena) Alloc(acc mem.Access, n int) mem.Addr {
	return a.alloc(acc, n, false)
}

// AllocAligned reserves n words starting at a cache-line boundary.
func (a *Arena) AllocAligned(acc mem.Access, n int) mem.Addr {
	return a.alloc(acc, n, true)
}

func (a *Arena) alloc(acc mem.Access, n int, aligned bool) mem.Addr {
	if n <= 0 {
		panic("tmds: arena Alloc with non-positive size")
	}
	shard := a.shardAddr(acc)
	cur := mem.Addr(acc.Load(shard))
	end := mem.Addr(acc.Load(shard + 1))
	if aligned {
		if rem := cur % mem.LineWords; rem != 0 {
			cur += mem.LineWords - rem
		}
	}
	if cur == 0 || cur+mem.Addr(n) > end {
		cur, end = a.refill(acc, n)
	}
	acc.Store(shard, uint64(cur)+uint64(n))
	acc.Store(shard+1, uint64(end))
	return cur
}

// refill grabs a fresh chunk (at least n words, line-aligned) from the
// master cursor.
func (a *Arena) refill(acc mem.Access, n int) (cur, end mem.Addr) {
	want := arenaChunk
	if n > want {
		want = n
	}
	m := mem.Addr(acc.Load(a.master))
	if rem := m % mem.LineWords; rem != 0 {
		m += mem.LineWords - rem
	}
	if m+mem.Addr(want) > a.limit {
		// Shrink to what is left, if that still fits the request.
		if m+mem.Addr(n) > a.limit {
			panic("tmds: arena exhausted")
		}
		want = int(a.limit - m)
	}
	acc.Store(a.master, uint64(m)+uint64(want))
	return m, m + mem.Addr(want)
}

// Remaining returns the unchunked words left in the arena (shard-private
// leftovers are not counted).
func (a *Arena) Remaining(acc mem.Access) int {
	return int(a.limit) - int(acc.Load(a.master))
}

// Hash mixes a 64-bit key (SplitMix64 finalizer), used by the hash
// structures for bucket selection.
func Hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}
