package main

import (
	"fmt"
	"time"

	"seer"
	"seer/internal/core"
	"seer/internal/harness"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/stamp"
	"seer/internal/stats"
	"seer/internal/tmds"
	"seer/internal/topology"
)

// A layer driver is a small loop in this package that calls exported
// functions of one layer and is timed from outside. run performs about n
// operations and returns the elapsed host time and the operations done.
type driver struct {
	name string
	unit string // "ns" or "us" per operation
	n    int    // starting operation count, sized for >= minDriverTime on the reference box
	run  func(n int) (time.Duration, int)
}

// minDriverTime is the least a driver measures; a driver that finishes
// sooner is rerun with four times the operations.
const minDriverTime = 200 * time.Millisecond

var (
	topo8 = topology.SMT2(4)
	// shards128 is the registry shard count seer.Config picks
	// automatically on the 128-thread shape.
	shards128 = shape128.Threads() / 16
)

var drivers = []driver{
	{"machine.tick_ns.8t", "ns", 2 << 20, tickDriver(topo8, 0, false)},
	{"machine.tick_ns.128t", "ns", 3 << 19, tickDriver(shape128, 0, false)},
	{"machine.tickpure_ns.128t", "ns", 4 << 20, tickDriver(shape128, seer.DefaultSpeculativeQuantum, true)},
	{"machine.park_wake_ns", "ns", 3 << 19, parkWakeDriver},
	{"machine.acquire_ns", "ns", 1 << 18, acquireDriver},
	{"machine.run_spawn_us.128t", "us", 3000, runSpawnDriver},
	{"mem.register_ns", "ns", 16 << 20, registerDriver(1)},
	{"mem.register_ns.sharded", "ns", 16 << 20, registerDriver(shards128)},
	{"mem.direct_ns", "ns", 40 << 20, directDriver},
	{"mem.new_recycled_us", "us", 500, newRecycledDriver},
	{"htm.hw_attempt_ns", "ns", 1 << 20, attemptDriver(false)},
	{"htm.sw_attempt_ns", "ns", 1 << 20, attemptDriver(true)},
	{"htm.conflict_abort_ns", "ns", 3 << 17, conflictDriver},
	{"htm.store_ns.large_ws", "ns", 8 << 20, largeWriteSetDriver},
	{"spinlock.uncontended_ns", "ns", 8 << 20, spinlockDriver(topology.Flat(1))},
	{"spinlock.contended_ns.8t", "ns", 1 << 18, spinlockDriver(topo8)},
	{"policy.atomic_ns.hle", "ns", 3 << 20, atomicDriver(seer.PolicyHLE)},
	{"policy.atomic_ns.rtm", "ns", 3 << 20, atomicDriver(seer.PolicyRTM)},
	{"policy.atomic_ns.scm", "ns", 3 << 20, atomicDriver(seer.PolicySCM)},
	{"policy.atomic_ns.seer", "ns", 3 << 20, atomicDriver(seer.PolicySeer)},
	{"policy.atomic_ns.phtm", "ns", 3 << 20, atomicDriver(seer.PolicyPhased)},
	{"core.register_commit_ns.8t", "ns", 14 << 20, registerCommitDriver},
	{"core.update_scheme_us.8b", "us", 1 << 16, updateSchemeDriver(8)},
	{"core.update_scheme_us.32b", "us", 20000, updateSchemeDriver(32)},
	{"stats.merge_ns.32b", "ns", 180000, mergeDriver},
	{"tmds.rbtree_get_ns", "ns", 1 << 20, rbtreeGetDriver},
	{"tmds.hashmap_put_ns", "ns", 4 << 20, hashmapPutDriver},
	{"seer.newsystem_us.8t", "us", 500, newSystemDriver(seer.Topology{})},
	{"seer.newsystem_us.128t", "us", 450, newSystemDriver(shape128)},
}

// pairedMetrics are the layer metrics taken from alternating paired runs
// (obsOverheads, harnessOverheads) rather than from a timed loop.
var pairedMetrics = []struct{ name, unit string }{
	{"obs.telemetry_overhead_pct", "%"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.txtrace_overhead_pct", "%"},
	{"harness.grid_overhead_pct", "%"},
	{"harness.parallel_speedup.2w", "ratio"},
}

// layerMetricNames lists every workload-independent per-layer metric in
// reporting order.
func layerMetricNames() []string {
	var out []string
	for _, d := range drivers {
		out = append(out, d.name)
	}
	for _, m := range pairedMetrics {
		out = append(out, m.name)
	}
	return out
}

// runLayerDrivers times every layer driver, recording each as a span
// under a "layers" span.
func runLayerDrivers(tr *tracer, parent int) metricSet {
	out := metricSet{}
	start := time.Now()
	layers := tr.open("layers", parent, start)
	for _, d := range drivers {
		at := time.Now()
		n := d.n
		elapsed, ops := d.run(n)
		for elapsed < minDriverTime {
			n *= 4
			elapsed, ops = d.run(n)
		}
		per := float64(elapsed.Nanoseconds()) / float64(ops)
		if d.unit == "us" {
			per /= 1e3
		}
		s := single(d.unit, per)
		s.Ops = ops
		out[d.name] = s
		tr.add(d.name, layers, -1, at, time.Since(at), map[string]any{"ops": ops, "per_op": per, "unit": d.unit})
	}
	at := time.Now()
	obsOverheads(out)
	tr.add("obs.overheads", layers, -1, at, time.Since(at), nil)
	at = time.Now()
	harnessOverheads(out)
	tr.add("harness.overheads", layers, -1, at, time.Since(at), nil)
	tr.close(layers, time.Since(start))
	return out
}

// must panics on an error no input can cause: every driver builds its
// rig from fixed, valid constants.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: layer driver rig: %v", err))
	}
}

func engine(topo topology.Topology, quantum int) (*machine.Engine, machine.Config) {
	cfg := machine.Config{Topo: topo, Seed: 1, Cost: machine.DefaultCostModel(), SpecQuantum: quantum}
	eng, err := machine.New(cfg)
	must(err)
	return eng, cfg
}

// timeRun times Engine.Run over bodies.
func timeRun(eng *machine.Engine, bodies []func(*machine.Ctx)) time.Duration {
	start := time.Now()
	_, err := eng.Run(bodies)
	must(err)
	return time.Since(start)
}

// --- machine ---

// tickDriver: every hardware thread ticks one cycle at a time, so all
// stay runnable and every tick goes through the event queue (the shape of
// the in-package BenchmarkTick).
func tickDriver(topo topology.Topology, quantum int, pure bool) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		eng, _ := engine(topo, quantum)
		threads := topo.Threads()
		per := n / threads
		bodies := make([]func(*machine.Ctx), threads)
		for i := range bodies {
			bodies[i] = func(c *machine.Ctx) {
				for k := 0; k < per; k++ {
					if pure {
						c.TickPure(1)
					} else {
						c.Tick(1)
					}
				}
			}
		}
		return timeRun(eng, bodies), per * threads
	}
}

// parkWakeDriver: seven waiters park on one key and thread 0 wakes them
// all, over and over. The poll evaluator always reads the word free, so
// every wake is a full park → wake → resume round trip.
func parkWakeDriver(n int) (time.Duration, int) {
	eng, _ := engine(topo8, 0)
	eng.SetParkPollEvaluator(func(uint64) bool { return false })
	const key, period, pollCost = 1, 40, 2
	wakes := n / 7
	done := false
	parks := 0
	bodies := make([]func(*machine.Ctx), 8)
	bodies[0] = func(c *machine.Ctx) {
		for i := 0; i < wakes; i++ {
			c.Tick(4 * period)
			c.WakeKey(key)
		}
		done = true
		c.Tick(4 * period)
		c.WakeKey(key)
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(c *machine.Ctx) {
			for {
				c.Tick(pollCost)
				if done {
					return
				}
				parks++
				c.ParkOnWord(key, period, pollCost, 0)
			}
		}
	}
	return timeRun(eng, bodies), parks
}

// acquireDriver: eight threads hand one lock word around through the
// engine-side test-and-test-and-set protocol (Ctx.AcquireWord). The word
// lives in a Go variable so only the machine layer is timed.
func acquireDriver(n int) (time.Duration, int) {
	eng, cfg := engine(topo8, 0)
	var word uint64
	eng.SetParkPollEvaluator(func(uint64) bool { return word != 0 })
	eng.SetLockWordOps(
		func(int, uint64) uint64 { return word },
		func(_ int, _ uint64, v uint64) { word = v })
	const key = 1
	per := n / 8
	bodies := make([]func(*machine.Ctx), 8)
	for i := range bodies {
		bodies[i] = func(c *machine.Ctx) {
			for k := 0; k < per; k++ {
				if !c.AcquireWord(key, uint64(c.ID())+1) {
					panic("benchmark: AcquireWord without lock-word ops")
				}
				c.Tick(20) // hold
				c.Tick(cfg.Cost.LockOp)
				word = 0
				c.WakeKey(key)
				c.Tick(10)
			}
		}
	}
	return timeRun(eng, bodies), per * 8
}

// runSpawnDriver: Engine.Run with 128 bodies that return at once — the
// per-run cost of creating and retiring the thread contexts.
func runSpawnDriver(n int) (time.Duration, int) {
	eng, _ := engine(shape128, seer.DefaultSpeculativeQuantum)
	bodies := make([]func(*machine.Ctx), shape128.Threads())
	for i := range bodies {
		bodies[i] = func(*machine.Ctx) {}
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		_, err := eng.Run(bodies)
		must(err)
	}
	return time.Since(start), n
}

// --- mem ---

// registerDriver: one thread reads then writes each of 64 lines and
// unregisters them all — the registry traffic of one transaction, per
// line.
func registerDriver(shards int) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		const nLines = 64
		m := mem.NewSharded(1<<16, shards)
		base := m.AllocLines(nLines)
		lines := make([]mem.Line, nLines)
		for l := range lines {
			lines[l] = mem.LineOf(base + mem.Addr(l*mem.LineWords))
		}
		rounds := n / nLines
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for l := 0; l < nLines; l++ {
				a := base + mem.Addr(l*mem.LineWords)
				m.RegisterRead(1, a)
				m.RegisterWrite(1, a)
			}
			m.Unregister(1, lines)
		}
		return time.Since(start), rounds * nLines
	}
}

// directDriver: the fall-back path's inner loop, a non-transactional
// load and store with their strong-isolation registry checks.
func directDriver(n int) (time.Duration, int) {
	m := mem.New(1 << 12)
	a := m.AllocLines(1)
	start := time.Now()
	for k := 0; k < n; k++ {
		m.DirectStore(0, a, m.DirectLoad(0, a)+1)
	}
	return time.Since(start), n
}

// newRecycledDriver: rebuilding a 1 Mi-word memory on warm buffers.
func newRecycledDriver(n int) (time.Duration, int) {
	var buf mem.Buffers
	mem.NewRecycled(1<<20, 1, &buf).Release(&buf)
	start := time.Now()
	for k := 0; k < n; k++ {
		mem.NewRecycled(1<<20, 1, &buf).Release(&buf)
	}
	return time.Since(start), n
}

// --- htm ---

// attemptDriver: one thread commits transactions of 8 loads and 4
// stores on the hardware path (Unit.Run) or the software path (RunSW).
func attemptDriver(sw bool) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		eng, cfg := engine(topology.Flat(1), 0)
		m := mem.New(1 << 12)
		u := htm.New(m, cfg, htm.DefaultConfig())
		base := m.AllocLines(8)
		body := func(tx *htm.Tx) {
			var sum uint64
			for l := 0; l < 8; l++ {
				sum += tx.Load(base + mem.Addr(l*mem.LineWords))
			}
			for l := 0; l < 4; l++ {
				tx.Store(base+mem.Addr(l*mem.LineWords), sum+1)
			}
		}
		return timeRun(eng, []func(*machine.Ctx){func(c *machine.Ctx) {
			for k := 0; k < n; k++ {
				if sw {
					u.RunSW(c, body)
				} else {
					u.Run(c, body)
				}
			}
		}}), n
	}
}

// conflictDriver: two threads increment one line, retrying until they
// commit. The time of the whole duel is divided by its aborted attempts.
func conflictDriver(n int) (time.Duration, int) {
	eng, cfg := engine(topology.Flat(2), 0)
	m := mem.New(1 << 12)
	u := htm.New(m, cfg, htm.DefaultConfig())
	a := m.AllocLines(1)
	aborts := 0
	per := n / 2
	body := func(tx *htm.Tx) {
		v := tx.Load(a)
		tx.Work(20)
		tx.Store(a, v+1)
	}
	thread := func(c *machine.Ctx) {
		for k := 0; k < per; k++ {
			for u.Run(c, body) != 0 {
				aborts++
			}
		}
	}
	elapsed := timeRun(eng, []func(*machine.Ctx){thread, thread})
	return elapsed, max(aborts, 1)
}

// largeWriteSetDriver: stores into a 64-line write set, per store.
func largeWriteSetDriver(n int) (time.Duration, int) {
	const nLines = 64
	eng, cfg := engine(topology.Flat(1), 0)
	m := mem.New(1 << 16)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 4096, WriteSetLines: 512})
	base := m.AllocLines(nLines)
	rounds := n / nLines
	var v uint64
	body := func(tx *htm.Tx) {
		for l := 0; l < nLines; l++ {
			tx.Store(base+mem.Addr(l*mem.LineWords), v)
		}
	}
	return timeRun(eng, []func(*machine.Ctx){func(c *machine.Ctx) {
		for k := 0; k < rounds; k++ {
			v = uint64(k)
			u.Run(c, body)
		}
	}}), rounds * nLines
}

// --- spinlock ---

// spinlockDriver: every thread of topo acquires and releases one lock in
// a loop, on an engine wired the way seer.NewSystem wires it (Peek-based
// poll evaluator, DirectLoad/DirectStore lock-word ops). One thread is
// the uncontended path; eight is a convoy.
func spinlockDriver(topo topology.Topology) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		eng, cfg := engine(topo, 0)
		m := mem.New(1 << 12)
		htm.New(m, cfg, htm.DefaultConfig()) // installs the doomer DirectStore consults
		eng.SetParkPollEvaluator(func(key uint64) bool { return m.Peek(mem.Addr(key)) != 0 })
		eng.SetLockWordOps(
			func(hw int, key uint64) uint64 { return m.DirectLoad(hw, mem.Addr(key)) },
			func(hw int, key uint64, v uint64) { m.DirectStore(hw, mem.Addr(key), v) })
		lock := spinlock.New(m)
		threads := topo.Threads()
		per := n / threads
		bodies := make([]func(*machine.Ctx), threads)
		for i := range bodies {
			bodies[i] = func(c *machine.Ctx) {
				for k := 0; k < per; k++ {
					lock.Acquire(c, m)
					c.Tick(20)
					lock.Release(c, m)
					c.Tick(10)
				}
			}
		}
		return timeRun(eng, bodies), per * threads
	}
}

// --- policy ---

// atomicDriver: one thread runs a one-word atomic block through the
// public API, so what is timed is the policy's retry skeleton around a
// trivial body.
func atomicDriver(pol seer.PolicyKind) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		cfg := seer.DefaultConfig()
		cfg.Threads = 1
		cfg.Policy = pol
		cfg.MemWords = 1 << 12
		sys, err := seer.NewSystem(cfg)
		must(err)
		addr := sys.AllocAligned(1)
		body := func(a seer.Access) { a.Store(addr, a.Load(addr)+1) }
		start := time.Now()
		_, err = sys.Run([]seer.Worker{func(t *seer.Thread) {
			for k := 0; k < n; k++ {
				t.Atomic(0, body)
			}
		}})
		must(err)
		return time.Since(start), n
	}
}

// --- core / stats ---

func seerRig(blocks int) (*machine.Engine, *core.Seer) {
	eng, cfg := engine(topo8, 0)
	m := mem.New(1 << 14)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 64, WriteSetLines: 16})
	rng := machine.NewRand(5)
	opts := core.DefaultOptions()
	opts.HillClimb = false
	return eng, core.New(blocks, cfg, m, u, opts, &rng)
}

// registerCommitDriver: thread 0 registers commits while the other seven
// threads' slots in the active-transactions list stay announced, so each
// call folds a full list. The in-package BenchmarkScanActive fills the
// unexported list directly; here the other threads announce through
// Seer.Start and return without Finish.
func registerCommitDriver(n int) (time.Duration, int) {
	eng, s := seerRig(8)
	var elapsed time.Duration
	bodies := make([]func(*machine.Ctx), 8)
	bodies[0] = func(c *machine.Ctx) {
		ts := s.NewThreadState(c)
		c.Tick(1000) // after every other thread has announced
		s.Start(ts, 0, 0)
		start := time.Now()
		for k := 0; k < n; k++ {
			s.RegisterCommit(ts, 0)
		}
		elapsed = time.Since(start)
	}
	for i := 1; i < len(bodies); i++ {
		bodies[i] = func(c *machine.Ctx) {
			s.Start(s.NewThreadState(c), c.ID()%s.NumTx(), 0)
		}
	}
	_, err := eng.Run(bodies)
	must(err)
	return elapsed, n
}

// updateSchemeDriver: one scheme recomputation over dense statistics of
// blocks × blocks, re-seeded before every update (the shape of the
// in-package BenchmarkUpdateScheme).
func updateSchemeDriver(blocks int) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		eng, s := seerRig(blocks)
		var elapsed time.Duration
		_, err := eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
			ts := s.NewThreadState(c)
			seed := func() {
				for x := 0; x < blocks; x++ {
					for y := 0; y < blocks; y++ {
						if (x+y)%3 == 0 {
							ts.Mats().AddAbort(x, y)
						} else {
							ts.Mats().AddCommit(x, y)
						}
						ts.Mats().IncExec(x)
					}
				}
			}
			seed()
			s.UpdateScheme(c) // sizes every row
			start := time.Now()
			for k := 0; k < n; k++ {
				seed()
				s.UpdateScheme(c)
			}
			elapsed = time.Since(start)
		}})
		must(err)
		return elapsed, n
	}
}

// mergeDriver: draining one 32-block per-thread delta into the global
// matrices.
func mergeDriver(n int) (time.Duration, int) {
	const blocks = 32
	dst, src := stats.NewMatrices(blocks), stats.NewMatrices(blocks)
	for x := 0; x < blocks; x++ {
		for y := 0; y < blocks; y++ {
			src.AddCommit(x, y)
			src.AddAbort(y, x)
		}
		src.IncExec(x)
	}
	start := time.Now()
	for k := 0; k < n; k++ {
		dst.MergeFrom(src)
	}
	return time.Since(start), n
}

// --- tmds ---

// tmdsRig runs op n times on one thread under PolicySeq, after prepare
// has populated the structure through the thread's direct accessor.
func tmdsRig(n int, build func(m *mem.Memory, arena *tmds.Arena) (prepare func(seer.Access), op func(a seer.Access, k uint64))) (time.Duration, int) {
	const keys = 4096
	cfg := seer.DefaultConfig()
	cfg.Threads = 1
	cfg.Policy = seer.PolicySeq
	cfg.MemWords = 1 << 18
	sys, err := seer.NewSystem(cfg)
	must(err)
	arena := tmds.NewArena(sys.Memory(), 1<<17, sys.HWThreads())
	prepare, op := build(sys.Memory(), arena)
	var elapsed time.Duration
	_, err = sys.Run([]seer.Worker{func(t *seer.Thread) {
		prepare(t.Direct())
		var key uint64
		body := func(a seer.Access) { op(a, key) }
		start := time.Now()
		for k := 0; k < n; k++ {
			key = tmds.Hash(uint64(k % keys))
			t.Atomic(0, body)
		}
		elapsed = time.Since(start)
	}})
	must(err)
	return elapsed, n
}

// rbtreeGetDriver: lookups in a 4096-key red-black tree.
func rbtreeGetDriver(n int) (time.Duration, int) {
	return tmdsRig(n, func(m *mem.Memory, arena *tmds.Arena) (func(seer.Access), func(seer.Access, uint64)) {
		tree := tmds.NewRBTree(m, arena)
		prepare := func(a seer.Access) {
			for k := uint64(0); k < 4096; k++ {
				tree.Insert(a, tmds.Hash(k), k)
			}
		}
		return prepare, func(a seer.Access, k uint64) { tree.Get(a, k) }
	})
}

// hashmapPutDriver: puts over a 4096-key space into a 1024-bucket map
// (after the first pass every put updates an existing key).
func hashmapPutDriver(n int) (time.Duration, int) {
	return tmdsRig(n, func(m *mem.Memory, arena *tmds.Arena) (func(seer.Access), func(seer.Access, uint64)) {
		table := tmds.NewHashMap(m, 1024, arena)
		return func(seer.Access) {}, func(a seer.Access, k uint64) { table.Put(a, k, k) }
	})
}

// --- seer / harness ---

// newSystemDriver: NewSystem + Release on a warm Recycler, on the
// default testbed (zero topo) or a pinned shape with all its threads.
func newSystemDriver(topo seer.Topology) func(int) (time.Duration, int) {
	return func(n int) (time.Duration, int) {
		cfg := seer.DefaultConfig()
		cfg.Recycler = new(seer.Recycler)
		if !topo.IsZero() {
			cfg.Topology = topo
			cfg.Threads = topo.Threads()
		}
		build := func() {
			sys, err := seer.NewSystem(cfg)
			must(err)
			sys.Release()
		}
		build()
		start := time.Now()
		for k := 0; k < n; k++ {
			build()
		}
		return time.Since(start), n
	}
}

// obsPairs is how many alternating on/off rounds the observability
// overheads are taken over.
const obsPairs = 15

// obsOverheads times one fixed cell (intruder × Seer × 8 threads) with
// each observability layer on and with all off, in rotating order within
// a round, and reports the median per-round overhead of each layer.
func obsOverheads(out metricSet) {
	w := workload{Name: "obs-cell", Scale: 1}
	c := cellSpec{Workload: "intruder", Policy: seer.PolicySeer, Threads: 8}
	variants := []struct {
		name string
		mod  func(*seer.Config)
	}{
		{"", func(*seer.Config) {}},
		{"obs.telemetry_overhead_pct", func(cfg *seer.Config) { cfg.MetricsInterval = obsMetricsInterval }},
		{"obs.trace_overhead_pct", func(cfg *seer.Config) { cfg.TraceEvents = obsTraceEvents }},
		{"obs.txtrace_overhead_pct", func(cfg *seer.Config) { cfg.TraceAttempts = true }},
	}
	rec := new(seer.Recycler)
	cell := func(mod func(*seer.Config)) float64 {
		wl, err := stamp.New(c.Workload, w.Scale)
		must(err)
		cfg := c.config(w, wl, 1, rec)
		mod(&cfg)
		start := time.Now()
		sys, err := seer.NewSystem(cfg)
		must(err)
		must(wl.Setup(sys))
		_, err = sys.Run(wl.Workers(c.Threads))
		must(err)
		sys.Release()
		return time.Since(start).Seconds()
	}
	cell(variants[0].mod) // warm the recycler
	pcts := make([][]float64, len(variants))
	for round := 0; round < obsPairs; round++ {
		times := make([]float64, len(variants))
		for k := range variants {
			v := (k + round) % len(variants)
			times[v] = cell(variants[v].mod)
		}
		for v := 1; v < len(variants); v++ {
			pcts[v] = append(pcts[v], 100*(times[v]/times[0]-1))
		}
	}
	for v := 1; v < len(variants); v++ {
		s := summarize("%", pcts[v])
		s.Ops = obsPairs
		out[variants[v].name] = s
	}
}

// harnessPairs is how many alternating rounds the harness comparison
// takes.
const harnessPairs = 3

// harnessOverheads runs the suite-8t cells at scale 0.25 through this
// package's cell runner, through harness.RunGrid at Parallel=1 and at
// Parallel=2, alternately, and reports RunGrid's overhead over the cell
// runner and its two-worker speed-up.
func harnessOverheads(out metricSet) {
	w, _ := findWorkload("suite-8t")
	w.Scale = 0.25
	specs := make([]harness.Spec, len(w.Cells))
	for i, c := range w.Cells {
		specs[i] = c.harnessSpec(w, 1)
	}
	grid := func(parallel int) float64 {
		start := time.Now()
		_, err := harness.RunGrid(harness.Options{Parallel: parallel}, specs, nil)
		must(err)
		return time.Since(start).Seconds()
	}
	var overhead, speedup []float64
	for round := 0; round < harnessPairs; round++ {
		var own, seq float64
		if round%2 == 0 {
			own, seq = runRep(w, 1, nil).WallS, grid(1)
		} else {
			seq, own = grid(1), runRep(w, 1, nil).WallS
		}
		overhead = append(overhead, 100*(seq/own-1))
		speedup = append(speedup, seq/grid(2))
	}
	o, s := summarize("%", overhead), summarize("ratio", speedup)
	o.Ops, s.Ops = harnessPairs, harnessPairs
	out["harness.grid_overhead_pct"], out["harness.parallel_speedup.2w"] = o, s
}
