package machine

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"seer/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error // nil = valid; otherwise the named sentinel to match
	}{
		{"default", DefaultConfig(), nil},
		{"single", Config{Topo: topology.Flat(1)}, nil},
		{"smt4", Config{Topo: topology.Multi(1, 4, 4)}, nil},
		{"multi-socket", Config{Topo: topology.Multi(4, 16, 2)}, nil},
		{"max threads", Config{Topo: topology.Multi(4, 64, 1)}, nil},
		{"zero topology", Config{}, topology.ErrSockets},
		{"zero sockets", Config{Topo: topology.Topology{Sockets: 0, CoresPerSocket: 4, ThreadsPerCore: 2}}, topology.ErrSockets},
		{"zero cores", Config{Topo: topology.Topology{Sockets: 1, CoresPerSocket: 0, ThreadsPerCore: 2}}, topology.ErrCores},
		{"negative cores", Config{Topo: topology.Topology{Sockets: 1, CoresPerSocket: -2, ThreadsPerCore: 2}}, topology.ErrCores},
		{"zero smt", Config{Topo: topology.Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 0}}, topology.ErrSMT},
		{"too many threads", Config{Topo: topology.Multi(8, 64, 1)}, ErrTooManyThreads},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", c.name, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
}

// TestSiblingsPartition: {hw} ∪ Siblings(hw) must partition the hardware
// threads into PhysCores() groups of equal size, with membership symmetric
// and consistent with PhysCore — over flat, 2-way-SMT, 4-way-SMT and
// multi-socket shapes.
func TestSiblingsPartition(t *testing.T) {
	for _, cfg := range []Config{
		{Topo: topology.SMT2(4)},        // the paper's testbed
		{Topo: topology.Multi(1, 4, 4)}, // 16 threads, 4-way SMT
		{Topo: topology.Multi(1, 3, 2)},
		{Topo: topology.Flat(4)},
		{Topo: topology.Flat(1)},
		{Topo: topology.Multi(2, 8, 2)},  // two sockets
		{Topo: topology.Multi(4, 16, 2)}, // the 128-thread scaling shape
		{Topo: topology.Multi(2, 2, 4)},  // multi-socket 4-way SMT
	} {
		n, cores := cfg.HWThreads(), cfg.PhysCores()
		seen := make(map[int]int, n) // thread -> core of its group
		for hw := 0; hw < n; hw++ {
			group := append([]int{hw}, cfg.Siblings(hw)...)
			if want := n / cores; len(group) != want {
				t.Fatalf("%v: group of %d has %d members, want %d", cfg.Topo, hw, len(group), want)
			}
			for _, m := range group {
				if cfg.PhysCore(m) != cfg.PhysCore(hw) {
					t.Fatalf("%v: %d and %d grouped but on cores %d and %d",
						cfg.Topo, hw, m, cfg.PhysCore(hw), cfg.PhysCore(m))
				}
				if prev, ok := seen[m]; ok && prev != cfg.PhysCore(m) {
					t.Fatalf("%v: thread %d assigned to two cores", cfg.Topo, m)
				}
				seen[m] = cfg.PhysCore(m)
			}
			// Siblings on one core must also share a socket.
			for _, m := range group {
				if cfg.Topo.SocketOf(m) != cfg.Topo.SocketOf(hw) {
					t.Fatalf("%v: siblings %d and %d on sockets %d and %d",
						cfg.Topo, hw, m, cfg.Topo.SocketOf(hw), cfg.Topo.SocketOf(m))
				}
			}
			// Symmetry: hw appears in each sibling's group.
			for _, s := range cfg.Siblings(hw) {
				found := false
				for _, back := range cfg.Siblings(s) {
					if back == hw {
						found = true
					}
				}
				if !found {
					t.Fatalf("%v: %d lists sibling %d but not vice versa", cfg.Topo, hw, s)
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("%v: groups cover %d of %d threads", cfg.Topo, len(seen), n)
		}
	}
}

func TestTopology(t *testing.T) {
	cfg := Config{Topo: topology.SMT2(4)}
	// Threads t and t+4 are hyperthread siblings.
	for hw := 0; hw < 8; hw++ {
		want := hw % 4
		if got := cfg.PhysCore(hw); got != want {
			t.Errorf("PhysCore(%d) = %d, want %d", hw, got, want)
		}
	}
	sibs := cfg.Siblings(1)
	if len(sibs) != 1 || sibs[0] != 5 {
		t.Errorf("Siblings(1) = %v, want [5]", sibs)
	}
	sibs = cfg.Siblings(5)
	if len(sibs) != 1 || sibs[0] != 1 {
		t.Errorf("Siblings(5) = %v, want [1]", sibs)
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRunMakespan(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(4, 2), Seed: 1, Cost: DefaultCostModel()})
	bodies := make([]func(*Ctx), 4)
	for i := range bodies {
		n := uint64(i+1) * 100
		bodies[i] = func(c *Ctx) { c.Tick(n) }
	}
	makespan, err := e.Run(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 400 {
		t.Fatalf("makespan = %d, want 400", makespan)
	}
}

// TestMinClockInterleaving verifies the engine always runs the thread with
// the smallest clock: a cheap-step thread must interleave many steps
// between an expensive-step thread's steps.
func TestMinClockInterleaving(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(2, 2), Seed: 1, Cost: DefaultCostModel()})
	var order []int
	bodies := []func(*Ctx){
		func(c *Ctx) {
			for i := 0; i < 10; i++ {
				order = append(order, 0)
				c.Tick(10)
			}
		},
		func(c *Ctx) {
			for i := 0; i < 10; i++ {
				order = append(order, 1)
				c.Tick(100)
			}
		},
	}
	if _, err := e.Run(bodies); err != nil {
		t.Fatal(err)
	}
	// Thread 0 (cost 10) must take its 10 steps before thread 1 reaches
	// its second step at clock 100.
	firstOnes := 0
	for i, id := range order {
		if id == 1 {
			firstOnes++
			if firstOnes == 2 {
				if i < 11 {
					t.Fatalf("thread 1 ran its second step too early (position %d): %v", i, order)
				}
				break
			}
		}
	}
}

func TestRunPanicPropagates(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(2, 1), Seed: 1, Cost: DefaultCostModel()})
	bodies := []func(*Ctx){
		func(c *Ctx) { c.Tick(1); panic("boom") },
	}
	if _, err := e.Run(bodies); err == nil {
		t.Fatalf("expected error from panicking body")
	}
}

func TestMaxCyclesLivelock(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(1, 1), Seed: 1, MaxCycles: 1000, Cost: DefaultCostModel()})
	bodies := []func(*Ctx){
		func(c *Ctx) {
			for {
				c.Tick(10)
			}
		},
	}
	_, err := e.Run(bodies)
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("err = %v, want ErrMaxCycles", err)
	}
}

func TestTooManyBodies(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(2, 1), Seed: 1, Cost: DefaultCostModel()})
	bodies := make([]func(*Ctx), 3)
	if _, err := e.Run(bodies); err == nil {
		t.Fatalf("expected error for more bodies than threads")
	}
}

func TestNilBodiesStayIdle(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(4, 2), Seed: 1, Cost: DefaultCostModel()})
	ran := false
	bodies := []func(*Ctx){nil, func(c *Ctx) { ran = true; c.Tick(7) }, nil}
	makespan, err := e.Run(bodies)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || makespan != 7 {
		t.Fatalf("ran=%v makespan=%d", ran, makespan)
	}
}

// TestRunHostsLowestBody: Run runs the lowest-id body itself and the rest
// in coroutines, so a Run of n bodies has n-1 coroutines alive at its
// first tick, and with body 0 nil body 1 is the host.
func TestRunHostsLowestBody(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(8, 8), Seed: 1, Cost: DefaultCostModel()})
	for _, n := range []int{1, 2, 5, 8} {
		coroutines := -1
		e.SetTickHook(func(uint64) uint64 {
			if coroutines < 0 {
				coroutines = 0
				for _, c := range e.threads[:n] {
					if c.next != nil {
						coroutines++
					}
				}
			}
			return ^uint64(0)
		})
		bodies := make([]func(*Ctx), n)
		for i := range bodies {
			bodies[i] = func(c *Ctx) { c.Tick(uint64(10 - i)) }
		}
		if _, err := e.Run(bodies); err != nil {
			t.Fatal(err)
		}
		if coroutines != n-1 {
			t.Errorf("%d bodies: %d coroutines at the first tick, want %d", n, coroutines, n-1)
		}
	}
	e.SetTickHook(nil)
	var host *Ctx
	bodies := []func(*Ctx){nil, func(c *Ctx) { host = c.eng.host; c.Tick(4) }, func(c *Ctx) { c.Tick(3) }}
	if _, err := e.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if host != e.threads[1] || e.threads[1].next != nil {
		t.Fatal("body 0 nil: thread 1 is not the host")
	}
}

// TestDeterministicSchedule runs the same randomized interleaving twice
// and checks identical traces.
func TestDeterministicSchedule(t *testing.T) {
	trace := func() []int {
		e := mustEngine(t, Config{Topo: topology.MustFromFlat(4, 2), Seed: 99, Cost: DefaultCostModel()})
		var order []int
		bodies := make([]func(*Ctx), 4)
		for i := range bodies {
			id := i
			bodies[i] = func(c *Ctx) {
				for n := 0; n < 50; n++ {
					order = append(order, id)
					c.Tick(uint64(1 + c.Rand().Intn(20)))
				}
			}
		}
		if _, err := e.Run(bodies); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestClockMonotonicQuick: a thread's clock never decreases through any
// sequence of Tick/TickPure/Work calls.
func TestClockMonotonicQuick(t *testing.T) {
	f := func(costs []uint16) bool {
		e, err := New(Config{Topo: topology.MustFromFlat(1, 1), Seed: 5, Cost: DefaultCostModel()})
		if err != nil {
			return false
		}
		ok := true
		bodies := []func(*Ctx){func(c *Ctx) {
			prev := c.Clock()
			for i, cost := range costs {
				switch i % 3 {
				case 0:
					c.Tick(uint64(cost))
				case 1:
					c.TickPure(uint64(cost))
				default:
					c.Work(uint64(cost % 64))
				}
				if c.Clock() < prev {
					ok = false
				}
				prev = c.Clock()
			}
		}}
		if _, err := e.Run(bodies); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDistribution(t *testing.T) {
	r := NewRand(12345)
	buckets := make([]int, 16)
	const draws = 16000
	for i := 0; i < draws; i++ {
		buckets[r.Intn(16)]++
	}
	for i, n := range buckets {
		if n < draws/16/2 || n > draws/16*2 {
			t.Fatalf("bucket %d has %d of %d draws (poor distribution)", i, n, draws)
		}
	}
	// Float64 stays in [0, 1).
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
	// Bool(0) never, Bool(1) always.
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatalf("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatalf("Bool(1) returned false")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatalf("zero-seeded Rand is stuck at zero")
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	r := NewRand(1)
	r.Intn(0)
}

func TestEngineReuse(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(2, 1), Seed: 1, Cost: DefaultCostModel()})
	for round := 0; round < 3; round++ {
		makespan, err := e.Run([]func(*Ctx){
			func(c *Ctx) { c.Tick(5) },
			func(c *Ctx) { c.Tick(9) },
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if makespan != 9 {
			t.Fatalf("round %d: makespan = %d, want 9 (clocks must reset)", round, makespan)
		}
	}
}

// TestRunResetsIdleThreads: a thread without a body in a Run stays idle
// at clock 0, whatever clock an earlier Run left it at.
func TestRunResetsIdleThreads(t *testing.T) {
	e := mustEngine(t, Config{Topo: topology.MustFromFlat(2, 1), Seed: 1, Cost: DefaultCostModel()})
	if _, err := e.Run([]func(*Ctx){
		func(c *Ctx) { c.Tick(5) },
		func(c *Ctx) { c.Tick(900) },
	}); err != nil {
		t.Fatal(err)
	}
	makespan, err := e.Run([]func(*Ctx){func(c *Ctx) { c.Tick(7) }})
	if err != nil {
		t.Fatal(err)
	}
	if makespan != 7 || e.Thread(1).Clock() != 0 {
		t.Fatalf("makespan = %d, thread 1 at clock %d; want 7 and 0", makespan, e.Thread(1).Clock())
	}
}

// TestDrainTerminatesGoroutines: error paths must unwind abandoned
// thread goroutines rather than leak them, and the engine must remain
// usable for a fresh run afterwards.
func TestDrainTerminatesGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = topology.SMT2(2)
	cfg.MaxCycles = 1000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spin := func(c *Ctx) {
		for {
			c.Tick(10)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := e.Run([]func(*Ctx){spin, spin, spin, spin}); err != ErrMaxCycles {
			t.Fatalf("run %d: err = %v, want ErrMaxCycles", i, err)
		}
	}
	// Give unwound goroutines a moment to exit before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after 20 aborted runs", before, after)
	}
	// The engine stays usable: a finite body completes normally.
	done := false
	if _, err := e.Run([]func(*Ctx){func(c *Ctx) { c.Tick(5); done = true }}); err != nil {
		t.Fatalf("engine unusable after drain: %v", err)
	}
	if !done {
		t.Fatalf("post-drain run did not execute the body")
	}
}
