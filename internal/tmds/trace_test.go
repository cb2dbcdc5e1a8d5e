package tmds

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seer/internal/mem"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// Every simulated access a structure makes is a tick and a conflict-registry
// entry inside the transactions the scheduler sees, so the order, address
// and value of each Load, Store and Work is part of the determinism
// contract, not an implementation detail. traceAccess hashes that sequence;
// TestAccessTraceGolden replays seeded random operation mixes and compares
// each seed's digest with testdata/trace.golden.

const (
	traceSeeds   = 50
	traceOps     = 3000
	traceKeys    = 512 // key space: small enough that deletes and updates hit
	traceThreads = 4   // accessor thread ids, so several arena shards refill
)

// traceAccess is a direct accessor over m that folds every access into an
// FNV-1a digest.
type traceAccess struct {
	m   *mem.Memory
	h   hash.Hash64
	tid int
	n   int // accesses recorded
}

func (r *traceAccess) record(op byte, a, v uint64) {
	var b [17]byte
	b[0] = op
	for i := 0; i < 8; i++ {
		b[1+i] = byte(a >> (8 * i))
		b[9+i] = byte(v >> (8 * i))
	}
	r.h.Write(b[:])
	r.n++
}

func (r *traceAccess) Load(a mem.Addr) uint64 {
	v := r.m.Peek(a)
	r.record('L', uint64(a), v)
	return v
}

func (r *traceAccess) Store(a mem.Addr, v uint64) {
	r.record('S', uint64(a), v)
	r.m.Poke(a, v)
}

func (r *traceAccess) Work(n uint64) { r.record('W', 0, n) }
func (r *traceAccess) ThreadID() int { return r.tid }

// result folds an operation's return values into the trace, so a change
// that keeps the accesses but not the answers also shows.
func (r *traceAccess) result(v uint64, ok bool) {
	b := uint64(0)
	if ok {
		b = 1
	}
	r.record('R', v, b)
}

// traceTree runs one seed's operation mix on a red-black tree and returns
// its trace line.
func traceTree(t *testing.T, seed int64) string {
	m, _, arena := testEnv(1 << 20)
	tr := NewRBTree(m, arena)
	acc := &traceAccess{m: m, h: fnv.New64a()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < traceOps; i++ {
		acc.tid = rng.Intn(traceThreads)
		k := uint64(rng.Intn(traceKeys))
		v := rng.Uint64()
		switch op := rng.Intn(8); {
		case op < 3:
			acc.result(0, tr.Insert(acc, k, v))
		case op < 5:
			acc.result(0, tr.Delete(acc, k))
		case op < 7:
			acc.result(tr.Get(acc, k))
		default:
			acc.result(0, tr.Update(acc, k, v))
		}
	}
	if msg := tr.CheckInvariants(acc); msg != "" {
		t.Fatalf("tree seed %d: %s", seed, msg)
	}
	acc.result(uint64(tr.Len(acc)), true)
	for _, k := range tr.Keys(acc, nil) {
		acc.result(k, true)
	}
	return fmt.Sprintf("rbtree seed=%d accesses=%d digest=%016x", seed, acc.n, acc.h.Sum64())
}

// traceMap does the same for a hash map with few buckets, so chains are
// long enough that hits land mid-chain.
func traceMap(seed int64) string {
	m, _, arena := testEnv(1 << 20)
	hm := NewHashMap(m, 32, arena)
	acc := &traceAccess{m: m, h: fnv.New64a()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < traceOps; i++ {
		acc.tid = rng.Intn(traceThreads)
		k := uint64(rng.Intn(traceKeys))
		v := rng.Uint64()
		switch op := rng.Intn(8); {
		case op < 2:
			acc.result(0, hm.Put(acc, k, v))
		case op < 4:
			acc.result(0, hm.PutIfAbsent(acc, k, v))
		case op < 6:
			acc.result(0, hm.Delete(acc, k))
		default:
			acc.result(hm.Get(acc, k))
		}
	}
	acc.result(hm.Size(acc), true)
	for _, k := range hm.Keys(acc, nil) {
		acc.result(k, true)
	}
	return fmt.Sprintf("hashmap seed=%d accesses=%d digest=%016x", seed, acc.n, acc.h.Sum64())
}

// traceHeap does the same for a binary heap, with pops between pushes so
// sift-down meets nodes with one child as well as two.
func traceHeap(seed int64) string {
	m, _, _ := testEnv(1 << 16)
	hp := NewHeap(m, 256)
	acc := &traceAccess{m: m, h: fnv.New64a()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < traceOps; i++ {
		if rng.Intn(2) == 0 {
			acc.result(0, hp.Push(acc, uint64(rng.Intn(traceKeys)), rng.Uint64()))
		} else {
			p, v, ok := hp.Pop(acc)
			acc.result(p^v, ok)
		}
	}
	return fmt.Sprintf("heap seed=%d accesses=%d digest=%016x", seed, acc.n, acc.h.Sum64())
}

// TestAccessTraceGolden pins the access sequence of RBTree, HashMap and Heap op
// for op (regenerate with `go test ./internal/tmds -run AccessTrace
// -update` only when a change to the sequence is intended: every workload
// digest moves with it).
func TestAccessTraceGolden(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= traceSeeds; seed++ {
		fmt.Fprintln(&got, traceTree(t, seed))
		fmt.Fprintln(&got, traceMap(seed))
		fmt.Fprintln(&got, traceHeap(seed))
	}
	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/tmds -run AccessTrace -update`): %v", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("access trace diverges from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("access trace diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
