package tmds

import (
	"seer/internal/mem"
)

// HashMap is a chained hash map from uint64 keys to uint64 values in
// simulated memory. Buckets are head pointers in a line-aligned array;
// nodes are three words: [key, value, next].
//
// Layout:
//
//	header (1 line): [0] bucket-array base, [1] nBuckets
//	buckets: nBuckets words of node addresses (0 = empty)
//	nodes (from arena): [key][value][next]
type HashMap struct {
	header   mem.Addr
	buckets  mem.Addr
	nBuckets uint64
	arena    *Arena
}

const (
	hmOffBase = 0
	hmOffN    = 1

	nodeKey  = 0
	nodeVal  = 1
	nodeNext = 2
	nodeSize = 3
)

// NewHashMap builds an empty map with nBuckets chains, allocating nodes
// from arena.
func NewHashMap(m *mem.Memory, nBuckets int, arena *Arena) *HashMap {
	if nBuckets <= 0 {
		panic("tmds: NewHashMap with non-positive buckets")
	}
	h := &HashMap{nBuckets: uint64(nBuckets), arena: arena}
	h.header = m.AllocLines(1)
	h.buckets = m.AllocAligned(nBuckets)
	m.Poke(h.header+hmOffBase, uint64(h.buckets))
	m.Poke(h.header+hmOffN, uint64(nBuckets))
	return h
}

// bucketAddr returns the address of key's bucket head pointer.
func (h *HashMap) bucketAddr(key uint64) mem.Addr {
	return h.buckets + mem.Addr(Hash(key)%h.nBuckets)
}

// find walks key's chain. It returns the bucket address, the chain head
// and key's node (mem.Nil when absent).
func (h *HashMap) find(acc mem.Access, key uint64) (ba, head, n mem.Addr) {
	ba = h.bucketAddr(key)
	head = mem.Addr(acc.Load(ba))
	for n = head; n != mem.Nil; n = mem.Addr(acc.Load(n + nodeNext)) {
		if acc.Load(n+nodeKey) == key {
			break
		}
	}
	return ba, head, n
}

// Get returns the value stored for key.
func (h *HashMap) Get(acc mem.Access, key uint64) (uint64, bool) {
	if _, _, n := h.find(acc, key); n != mem.Nil {
		return acc.Load(n + nodeVal), true
	}
	return 0, false
}

// Contains reports whether key is present.
func (h *HashMap) Contains(acc mem.Access, key uint64) bool {
	_, ok := h.Get(acc, key)
	return ok
}

// Put inserts or updates key → value; it reports whether the key was
// newly inserted.
func (h *HashMap) Put(acc mem.Access, key, value uint64) bool {
	return h.put(acc, key, value, true)
}

// PutIfAbsent inserts key → value only when key is absent; it reports
// whether the insert happened.
func (h *HashMap) PutIfAbsent(acc mem.Access, key, value uint64) bool {
	return h.put(acc, key, value, false)
}

// put links a fresh node at the head of key's chain, or, when key is
// present, overwrites its value if overwrite is set.
func (h *HashMap) put(acc mem.Access, key, value uint64, overwrite bool) bool {
	ba, head, n := h.find(acc, key)
	if n != mem.Nil {
		if overwrite {
			acc.Store(n+nodeVal, value)
		}
		return false
	}
	fresh := h.arena.Alloc(acc, nodeSize)
	acc.Store(fresh+nodeKey, key)
	acc.Store(fresh+nodeVal, value)
	acc.Store(fresh+nodeNext, uint64(head))
	acc.Store(ba, uint64(fresh))
	return true
}

// Delete removes key, reporting whether it was present. Nodes are
// unlinked, not reclaimed (STAMP's collections behave the same within a
// run).
func (h *HashMap) Delete(acc mem.Access, key uint64) bool {
	ba := h.bucketAddr(key)
	prev := mem.Nil
	node := mem.Addr(acc.Load(ba))
	for node != mem.Nil {
		next := mem.Addr(acc.Load(node + nodeNext))
		if acc.Load(node+nodeKey) == key {
			if prev == mem.Nil {
				acc.Store(ba, uint64(next))
			} else {
				acc.Store(prev+nodeNext, uint64(next))
			}
			return true
		}
		prev = node
		node = next
	}
	return false
}

// Size counts the stored keys by walking every chain. It exists for
// setup and validation; maintaining a shared size word transactionally
// would put a global hotspot into every insert and delete (the original
// STAMP collections avoid one for the same reason).
func (h *HashMap) Size(acc mem.Access) uint64 {
	var n uint64
	for b := uint64(0); b < h.nBuckets; b++ {
		node := mem.Addr(acc.Load(h.buckets + mem.Addr(b)))
		for node != mem.Nil {
			n++
			node = mem.Addr(acc.Load(node + nodeNext))
		}
	}
	return n
}

// Keys appends every stored key to dst (test/validation helper; walks the
// whole table).
func (h *HashMap) Keys(acc mem.Access, dst []uint64) []uint64 {
	for b := uint64(0); b < h.nBuckets; b++ {
		node := mem.Addr(acc.Load(h.buckets + mem.Addr(b)))
		for node != mem.Nil {
			dst = append(dst, acc.Load(node+nodeKey))
			node = mem.Addr(acc.Load(node + nodeNext))
		}
	}
	return dst
}
