package tmds_test

import (
	"sort"
	"testing"

	"seer"
	"seer/internal/mem"
	"seer/internal/tmds"
)

// The fuzz targets execute the transactional data structures the way the
// workloads do — inside atomic blocks under the full Seer policy, with
// concurrent reader threads forcing aborts and retries — and then differ
// the final state against a plain Go map driven by the same operation
// sequence. Any divergence (lost update, resurrecting delete, broken
// rebalancing) is a serializability or structure bug.

// peekAccess is a direct accessor over the simulated memory for
// single-threaded verification outside a run.
type peekAccess struct{ m *mem.Memory }

func (p peekAccess) Load(a mem.Addr) uint64     { return p.m.Peek(a) }
func (p peekAccess) Store(a mem.Addr, v uint64) { p.m.Poke(a, v) }
func (p peekAccess) Work(n uint64)              {}
func (p peekAccess) ThreadID() int              { return 0 }

// fuzzOp is one decoded mutation/lookup.
type fuzzOp struct {
	kind byte // 0 put, 1 delete, 2 get, 3 contains
	key  uint64
	val  uint64
}

// decodeOps maps fuzz bytes onto operations over a 16-key space. The
// sequence is capped so a single case stays cheap; the small keyspace
// maximizes key collisions, which is where the structure logic lives.
func decodeOps(data []byte) []fuzzOp {
	if len(data) > 256 {
		data = data[:256]
	}
	ops := make([]fuzzOp, len(data))
	for i, b := range data {
		ops[i] = fuzzOp{
			kind: b & 3,
			key:  uint64((b >> 2) & 15),
			val:  uint64(i)*2654435761 + 1,
		}
	}
	return ops
}

// structOps adapts one data structure to the generic fuzz harness.
type structOps struct {
	put      func(a seer.Access, k, v uint64)
	del      func(a seer.Access, k uint64)
	get      func(a seer.Access, k uint64) (uint64, bool)
	contains func(a seer.Access, k uint64) bool
	keys     func(a seer.Access) []uint64
	// check returns a non-empty diagnostic when a structural invariant
	// is violated (nil when the structure has none to check).
	check func(a seer.Access) string
}

// runStructFuzz drives ops through the structure under PolicySeer with
// two concurrent read-only threads, then verifies the recorded lookup
// results and the final state against a Go map model.
func runStructFuzz(t *testing.T, data []byte, build func(sys *seer.System) structOps) {
	t.Helper()
	ops := decodeOps(data)

	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = 3
	cfg.HWThreads = 4
	cfg.PhysCores = 2
	cfg.Seed = 7
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 17
	cfg.MaxCycles = 1 << 28
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := build(sys)

	// Thread 0 is the only mutator, so the model evolves in its program
	// order; expectations for every lookup can be computed up front.
	model := map[uint64]uint64{}
	expVal := make([]uint64, len(ops))
	expOk := make([]bool, len(ops))
	for i, op := range ops {
		switch op.kind {
		case 0:
			model[op.key] = op.val
		case 1:
			delete(model, op.key)
		case 2, 3:
			v, ok := model[op.key]
			expVal[i], expOk[i] = v, ok
		}
	}
	gotVal := make([]uint64, len(ops))
	gotOk := make([]bool, len(ops))

	workers := make([]seer.Worker, cfg.Threads)
	workers[0] = func(th *seer.Thread) {
		for i, op := range ops {
			i, op := i, op
			th.Atomic(0, func(a seer.Access) {
				switch op.kind {
				case 0:
					s.put(a, op.key, op.val)
				case 1:
					s.del(a, op.key)
				case 2:
					gotVal[i], gotOk[i] = s.get(a, op.key)
				case 3:
					gotOk[i] = s.contains(a, op.key)
					gotVal[i] = 0
				}
			})
			th.Work(10)
		}
	}
	for w := 1; w < cfg.Threads; w++ {
		probe := uint64(w)
		workers[w] = func(th *seer.Thread) {
			for n := 0; n < len(ops); n++ {
				k := (probe + uint64(n)) % 16
				th.Atomic(1, func(a seer.Access) {
					_ = s.contains(a, k)
					if v, ok := s.get(a, k); ok {
						_ = v
					}
				})
				th.Work(25)
			}
		}
	}
	if _, err := sys.Run(workers); err != nil {
		t.Fatalf("run: %v", err)
	}

	for i, op := range ops {
		if op.kind == 2 && (gotVal[i] != expVal[i] || gotOk[i] != expOk[i]) {
			t.Fatalf("op %d: Get(%d) = (%d,%v), model says (%d,%v)", i, op.key, gotVal[i], gotOk[i], expVal[i], expOk[i])
		}
		if op.kind == 3 && gotOk[i] != expOk[i] {
			t.Fatalf("op %d: Contains(%d) = %v, model says %v", i, op.key, gotOk[i], expOk[i])
		}
	}

	acc := peekAccess{sys.Memory()}
	if s.check != nil {
		if msg := s.check(acc); msg != "" {
			t.Fatalf("invariant violated: %s", msg)
		}
	}
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := s.keys(acc)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		t.Fatalf("final keys = %v, model = %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final keys = %v, model = %v", got, want)
		}
	}
	for k, v := range model {
		if gv, ok := s.get(acc, k); !ok || gv != v {
			t.Fatalf("final Get(%d) = (%d,%v), model says (%d,true)", k, gv, ok, v)
		}
	}
}

// fuzzCorpus seeds each target with characteristic shapes: empty, single
// op, put/delete churn on one key, and a mixed burst over the keyspace.
func fuzzCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x04, 0x05, 0x04, 0x05, 0x06, 0x07})
	burst := make([]byte, 96)
	for i := range burst {
		burst[i] = byte(i*37 + 11)
	}
	f.Add(burst)
}

func FuzzHashMap(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		runStructFuzz(t, data, func(sys *seer.System) structOps {
			arena := tmds.NewArena(sys.Memory(), 1<<14, sys.HWThreads())
			h := tmds.NewHashMap(sys.Memory(), 8, arena)
			return structOps{
				put:      func(a seer.Access, k, v uint64) { h.Put(a, k, v) },
				del:      func(a seer.Access, k uint64) { h.Delete(a, k) },
				get:      h.Get,
				contains: h.Contains,
				keys:     func(a seer.Access) []uint64 { return h.Keys(a, nil) },
			}
		})
	})
}

func FuzzRBTree(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		runStructFuzz(t, data, func(sys *seer.System) structOps {
			arena := tmds.NewArena(sys.Memory(), 1<<14, sys.HWThreads())
			tree := tmds.NewRBTree(sys.Memory(), arena)
			return structOps{
				put:      func(a seer.Access, k, v uint64) { tree.Insert(a, k, v) },
				del:      func(a seer.Access, k uint64) { tree.Delete(a, k) },
				get:      tree.Get,
				contains: tree.Contains,
				keys:     func(a seer.Access) []uint64 { return tree.Keys(a, nil) },
				check:    tree.CheckInvariants,
			}
		})
	})
}
