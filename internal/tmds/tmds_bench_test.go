package tmds

import (
	"math/rand"
	"testing"

	"seer/internal/mem"
)

func benchEnv(words int) (*mem.Memory, rawAccess, *Arena) {
	m := mem.New(words)
	return m, rawAccess{m}, NewArena(m, words/2, 1)
}

// insertsPerBuild is how many fresh keys the insert benchmarks add to one
// structure before rebuilding it off the clock, on memory backed in full
// there too: the arena never reclaims, so it would otherwise run out.
const insertsPerBuild = 100000

// backedEnv is benchEnv with every word backed, so the timed loop never
// grows the memory.
func backedEnv(words int) (*mem.Memory, rawAccess, *Arena) {
	m, acc, arena := benchEnv(words)
	m.Peek(mem.Addr(words - 1))
	return m, acc, arena
}

// freshKey is the i-th key of an insert benchmark: distinct for every i
// (an odd multiplier is a bijection on uint64) and in no sorted order.
func freshKey(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }

// BenchmarkHashMapPut inserts a fresh key on every call.
func BenchmarkHashMapPut(b *testing.B) {
	var acc rawAccess
	var h *HashMap
	for i := 0; i < b.N; i++ {
		if i%insertsPerBuild == 0 {
			b.StopTimer()
			m, a, arena := backedEnv(1 << 20)
			acc, h = a, NewHashMap(m, 4096, arena)
			b.StartTimer()
		}
		if !h.Put(acc, freshKey(i), uint64(i)) {
			b.Fatal("Put found its key")
		}
	}
}

func BenchmarkHashMapGet(b *testing.B) {
	m, acc, arena := benchEnv(1 << 22)
	h := NewHashMap(m, 4096, arena)
	for k := uint64(0); k < 10000; k++ {
		h.Put(acc, k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(acc, uint64(i%10000))
	}
}

// BenchmarkRBTreeInsert inserts a fresh key on every call, so every call
// links a node and runs the insert fixup.
func BenchmarkRBTreeInsert(b *testing.B) {
	var acc rawAccess
	var tr *RBTree
	for i := 0; i < b.N; i++ {
		if i%insertsPerBuild == 0 {
			b.StopTimer()
			m, a, arena := backedEnv(1 << 21)
			acc, tr = a, NewRBTree(m, arena)
			b.StartTimer()
		}
		if !tr.Insert(acc, freshKey(i), uint64(i)) {
			b.Fatal("Insert found its key")
		}
	}
}

func BenchmarkRBTreeGet(b *testing.B) {
	m, acc, arena := benchEnv(1 << 24)
	tr := NewRBTree(m, arena)
	for k := uint64(0); k < 10000; k++ {
		tr.Insert(acc, k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(acc, uint64(i%10000))
	}
}

// BenchmarkRBTreeChurn deletes and re-inserts random keys of a 4 096-key
// tree, so both rotation directions and every insert and delete fixup
// case run. Unlinked nodes are not reclaimed, so the tree is rebuilt off
// the clock before its arena runs out.
func BenchmarkRBTreeChurn(b *testing.B) {
	const keys, rebuildEvery = 4096, 200000
	var acc rawAccess
	var tr *RBTree
	build := func() {
		m, a, arena := benchEnv(1 << 22)
		acc, tr = a, NewRBTree(m, arena)
		for _, k := range rand.New(rand.NewSource(1)).Perm(keys) {
			tr.Insert(acc, uint64(k), 0)
		}
	}
	build()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%rebuildEvery == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		k := uint64(rng.Intn(keys))
		tr.Delete(acc, k)
		tr.Insert(acc, k, uint64(i))
	}
}

func BenchmarkQueuePushPop(b *testing.B) {
	m, acc, _ := benchEnv(1 << 16)
	q := NewQueue(m, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(acc, uint64(i))
		q.Pop(acc)
	}
}

func BenchmarkArenaAlloc(b *testing.B) {
	m, acc, _ := benchEnv(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			// Fresh arena periodically so the benchmark never exhausts.
			_, acc2, arena := benchEnv(1 << 16)
			_ = m
			acc = acc2
			benchArena = arena
		}
		benchArena.Alloc(acc, 3)
	}
}

var benchArena *Arena

func init() {
	_, _, benchArena = benchEnv(1 << 16)
}
