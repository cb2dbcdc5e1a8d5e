package tmds

import (
	"sort"
	"testing"
	"testing/quick"

	"seer/internal/mem"
)

// rawAccess is a no-frills accessor over a Memory for single-threaded
// data-structure testing (no HTM, no virtual time).
type rawAccess struct{ m *mem.Memory }

func (r rawAccess) Load(a mem.Addr) uint64     { return r.m.Peek(a) }
func (r rawAccess) Store(a mem.Addr, v uint64) { r.m.Poke(a, v) }
func (r rawAccess) Work(n uint64)              {}
func (r rawAccess) ThreadID() int              { return 0 }

func testEnv(words int) (*mem.Memory, rawAccess, *Arena) {
	m := mem.New(words)
	arena := NewArena(m, words/2, 1)
	return m, rawAccess{m}, arena
}

func TestArenaAlloc(t *testing.T) {
	m, acc, arena := testEnv(1 << 12)
	a := arena.Alloc(acc, 3)
	b := arena.Alloc(acc, 5)
	if b != a+3 {
		t.Fatalf("bump allocation not contiguous: %d then %d", a, b)
	}
	c := arena.AllocAligned(acc, 4)
	if c%mem.LineWords != 0 {
		t.Fatalf("AllocAligned returned unaligned address %d", c)
	}
	if arena.Remaining(acc) <= 0 {
		t.Fatalf("arena should have room left")
	}
	_ = m
}

func TestArenaExhaustionPanics(t *testing.T) {
	_, acc, arena := testEnv(1 << 12)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on arena exhaustion")
		}
	}()
	for {
		arena.Alloc(acc, 64)
	}
}

func TestHashMapBasic(t *testing.T) {
	m, acc, arena := testEnv(1 << 14)
	h := NewHashMap(m, 16, arena)
	if h.Size(acc) != 0 {
		t.Fatalf("new map not empty")
	}
	if !h.Put(acc, 42, 1) {
		t.Fatalf("Put of new key returned false")
	}
	if h.Put(acc, 42, 2) {
		t.Fatalf("Put of existing key returned true")
	}
	if v, ok := h.Get(acc, 42); !ok || v != 2 {
		t.Fatalf("Get(42) = %d,%v; want 2,true", v, ok)
	}
	if h.Contains(acc, 43) {
		t.Fatalf("Contains(43) on empty key")
	}
	if !h.PutIfAbsent(acc, 43, 7) || h.PutIfAbsent(acc, 43, 8) {
		t.Fatalf("PutIfAbsent semantics broken")
	}
	if v, _ := h.Get(acc, 43); v != 7 {
		t.Fatalf("PutIfAbsent overwrote: got %d", v)
	}
	if h.Size(acc) != 2 {
		t.Fatalf("size = %d, want 2", h.Size(acc))
	}
	if !h.Delete(acc, 42) || h.Delete(acc, 42) {
		t.Fatalf("Delete semantics broken")
	}
	if h.Size(acc) != 1 {
		t.Fatalf("size after delete = %d, want 1", h.Size(acc))
	}
}

func TestHashMapCollisions(t *testing.T) {
	m, acc, arena := testEnv(1 << 16)
	h := NewHashMap(m, 1, arena) // all keys collide
	for k := uint64(0); k < 100; k++ {
		if !h.Put(acc, k, k*10) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	for k := uint64(0); k < 100; k++ {
		if v, ok := h.Get(acc, k); !ok || v != k*10 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// Delete every even key from the single chain.
	for k := uint64(0); k < 100; k += 2 {
		if !h.Delete(acc, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	for k := uint64(0); k < 100; k++ {
		want := k%2 == 1
		if got := h.Contains(acc, k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestHashMapQuickVsModel drives the map with random operation sequences
// and checks it against Go's native map.
func TestHashMapQuickVsModel(t *testing.T) {
	f := func(ops []uint16) bool {
		m, acc, arena := testEnv(1 << 18)
		h := NewHashMap(m, 8, arena)
		model := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 64)
			v := uint64(i)
			switch op % 3 {
			case 0:
				got := h.Put(acc, k, v)
				_, existed := model[k]
				model[k] = v
				if got == existed {
					return false
				}
			case 1:
				got := h.Delete(acc, k)
				_, existed := model[k]
				delete(model, k)
				if got != existed {
					return false
				}
			case 2:
				gv, gok := h.Get(acc, k)
				wv, wok := model[k]
				if gok != wok || (gok && gv != wv) {
					return false
				}
			}
			if h.Size(acc) != uint64(len(model)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeBasic(t *testing.T) {
	m, acc, arena := testEnv(1 << 16)
	tr := NewRBTree(m, arena)
	for _, k := range []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35} {
		if !tr.Insert(acc, k, k*2) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if msg := tr.CheckInvariants(acc); msg != "" {
			t.Fatalf("after Insert(%d): %s", k, msg)
		}
	}
	if tr.Insert(acc, 50, 999) {
		t.Fatalf("duplicate insert reported new")
	}
	if v, ok := tr.Get(acc, 50); !ok || v != 999 {
		t.Fatalf("Get(50) = %d,%v", v, ok)
	}
	if !tr.Update(acc, 30, 1) || tr.Update(acc, 31, 1) {
		t.Fatalf("Update semantics broken")
	}
	if tr.Len(acc) != 9 {
		t.Fatalf("Len = %d, want 9", tr.Len(acc))
	}
	for _, k := range []uint64{20, 50, 10, 90} {
		if !tr.Delete(acc, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
		if msg := tr.CheckInvariants(acc); msg != "" {
			t.Fatalf("after Delete(%d): %s", k, msg)
		}
	}
	if tr.Delete(acc, 20) {
		t.Fatalf("double delete succeeded")
	}
	keys := tr.Keys(acc, nil)
	want := []uint64{25, 30, 35, 70, 80}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

// TestRBTreeQuickInvariants drives the tree with random operations and
// revalidates the red-black invariants and a model map after each.
func TestRBTreeQuickInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		m, acc, arena := testEnv(1 << 20)
		tr := NewRBTree(m, arena)
		model := map[uint64]uint64{}
		for i, op := range ops {
			k := uint64(op % 96)
			switch op % 2 {
			case 0:
				tr.Insert(acc, k, uint64(i))
				model[k] = uint64(i)
			case 1:
				got := tr.Delete(acc, k)
				_, existed := model[k]
				if got != existed {
					return false
				}
				delete(model, k)
			}
			if msg := tr.CheckInvariants(acc); msg != "" {
				t.Logf("invariant violated: %s", msg)
				return false
			}
		}
		if tr.Len(acc) != len(model) {
			return false
		}
		for k, v := range model {
			gv, ok := tr.Get(acc, k)
			if !ok || gv != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeAscendingDescendingInserts(t *testing.T) {
	m, acc, arena := testEnv(1 << 20)
	tr := NewRBTree(m, arena)
	for k := uint64(1); k <= 200; k++ {
		tr.Insert(acc, k, k)
	}
	for k := uint64(400); k >= 300; k-- {
		tr.Insert(acc, k, k)
	}
	if msg := tr.CheckInvariants(acc); msg != "" {
		t.Fatalf("invariants: %s", msg)
	}
	if tr.Len(acc) != 301 {
		t.Fatalf("Len = %d, want 301", tr.Len(acc))
	}
}

func TestQueueFIFO(t *testing.T) {
	m, _, _ := testEnv(1 << 12)
	acc := rawAccess{m}
	q := NewQueue(m, 8)
	if !q.Empty(acc) {
		t.Fatalf("new queue not empty")
	}
	for i := uint64(1); i <= 7; i++ {
		if !q.Push(acc, i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if q.Push(acc, 99) {
		t.Fatalf("Push succeeded on full queue")
	}
	if q.Len(acc) != 7 {
		t.Fatalf("Len = %d, want 7", q.Len(acc))
	}
	for i := uint64(1); i <= 7; i++ {
		v, ok := q.Pop(acc)
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v; want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(acc); ok {
		t.Fatalf("Pop succeeded on empty queue")
	}
}

func TestQueueWraparound(t *testing.T) {
	m, _, _ := testEnv(1 << 12)
	acc := rawAccess{m}
	q := NewQueue(m, 4)
	next := uint64(0)
	expect := uint64(0)
	for round := 0; round < 20; round++ {
		for q.Push(acc, next) {
			next++
		}
		v, ok := q.Pop(acc)
		if !ok || v != expect {
			t.Fatalf("round %d: Pop = %d,%v; want %d", round, v, ok, expect)
		}
		expect++
	}
}

func TestCountersPaddedAndDense(t *testing.T) {
	m, _, _ := testEnv(1 << 12)
	acc := rawAccess{m}
	p := NewCounters(m, 4)
	if mem.LineOf(p.Addr(0)) == mem.LineOf(p.Addr(1)) {
		t.Fatalf("padded counters share a cache line")
	}
	for i := 0; i < 4; i++ {
		p.Add(acc, i, uint64(i)+1)
	}
	for i := 0; i < 4; i++ {
		if p.Get(acc, i) != uint64(i)+1 {
			t.Fatalf("padded counter %d = %d", i, p.Get(acc, i))
		}
	}
	if p.N() != 4 {
		t.Fatalf("N() wrong")
	}
}

func TestHashDistribution(t *testing.T) {
	seen := map[uint64]bool{}
	for k := uint64(0); k < 1000; k++ {
		seen[Hash(k)%64] = true
	}
	if len(seen) < 60 {
		t.Fatalf("Hash covers only %d/64 buckets over 1000 keys", len(seen))
	}
}

func TestHeapOrdering(t *testing.T) {
	m, acc, _ := testEnv(1 << 12)
	h := NewHeap(m, 64)
	if h.Len(acc) != 0 {
		t.Fatalf("new heap not empty")
	}
	if _, _, ok := h.Pop(acc); ok {
		t.Fatalf("Pop on empty heap succeeded")
	}
	prios := []uint64{9, 3, 7, 1, 8, 3, 0, 12}
	for i, p := range prios {
		if !h.Push(acc, p, uint64(i)) {
			t.Fatalf("Push(%d) failed", p)
		}
	}
	if p, _, _ := h.Min(acc); p != 0 {
		t.Fatalf("Min = %d, want 0", p)
	}
	last := uint64(0)
	for range prios {
		p, _, ok := h.Pop(acc)
		if !ok {
			t.Fatalf("heap emptied early")
		}
		if p < last {
			t.Fatalf("heap order violated: %d after %d", p, last)
		}
		last = p
	}
	if h.Len(acc) != 0 {
		t.Fatalf("heap not empty after draining")
	}
}

func TestHeapCapacity(t *testing.T) {
	m, acc, _ := testEnv(1 << 12)
	h := NewHeap(m, 2)
	if !h.Push(acc, 1, 1) || !h.Push(acc, 2, 2) {
		t.Fatalf("pushes within capacity failed")
	}
	if h.Push(acc, 3, 3) {
		t.Fatalf("push beyond capacity succeeded")
	}
}

// TestHeapQuickVsSort: popping everything yields the sorted priorities.
func TestHeapQuickVsSort(t *testing.T) {
	f := func(prios []uint16) bool {
		if len(prios) > 200 {
			prios = prios[:200]
		}
		m, acc, _ := testEnv(1 << 14)
		h := NewHeap(m, len(prios)+1)
		model := make([]uint64, 0, len(prios))
		for i, p := range prios {
			h.Push(acc, uint64(p), uint64(i))
			model = append(model, uint64(p))
		}
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		for _, want := range model {
			got, _, ok := h.Pop(acc)
			if !ok || got != want {
				return false
			}
		}
		_, _, ok := h.Pop(acc)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
