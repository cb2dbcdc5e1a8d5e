// Package seer is a reproduction of "Seer: Probabilistic Scheduling for
// Hardware Transactional Memory" (Diegues, Romano, Garbatov — SPAA 2015)
// as a self-contained Go library.
//
// Because Go exposes no HTM intrinsics, the library runs transactional
// programs on a deterministic virtual-time multicore simulator with a
// best-effort, TSX-semantics hardware transactional memory (see DESIGN.md
// for the substitution argument). On top of that substrate it provides
// the paper's Seer scheduler and the HLE/RTM/SCM baselines it is evaluated
// against, the STAMP-style workloads of the evaluation, and a harness that
// regenerates every table and figure.
//
// # Quick start
//
//	cfg := seer.DefaultConfig()
//	cfg.Policy = seer.PolicySeer
//	cfg.NumAtomicBlocks = 1
//	sys, err := seer.NewSystem(cfg)
//	// allocate shared state in simulated memory
//	counter := sys.AllocAligned(1)
//	workers := make([]seer.Worker, 4)
//	for i := range workers {
//		workers[i] = func(t *seer.Thread) {
//			for n := 0; n < 1000; n++ {
//				t.Atomic(0, func(a seer.Access) {
//					a.Store(counter, a.Load(counter)+1)
//				})
//			}
//		}
//	}
//	rep, err := sys.Run(workers)
//	// sys.Peek(counter) == 4000; rep.MakespanCycles is the virtual time
package seer

import (
	"errors"
	"fmt"

	"seer/internal/core"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/policy"
	"seer/internal/spinlock"
	"seer/internal/stats"
	"seer/internal/telemetry"
	"seer/internal/topology"
)

// Re-exported substrate types, so programs written against the public API
// never import internal packages.
type (
	// Addr is a word address in simulated memory.
	Addr = mem.Addr
	// Access is the accessor passed to transaction bodies; it is backed
	// by a hardware transaction or, on the fall-back path, by direct
	// memory accesses under the single-global lock.
	Access = mem.Access
	// Rand is the deterministic per-thread pseudo-random generator.
	Rand = machine.Rand
	// CostModel assigns virtual-cycle costs to simulated actions.
	CostModel = machine.CostModel
	// HTMConfig sets capacity and noise parameters of the simulated HTM.
	HTMConfig = htm.Config
	// HTMCounters aggregates commit/abort events by cause.
	HTMCounters = htm.Counters
	// EngineCounters is the simulator's account of its own event loop:
	// events scheduled, split into coroutine resumes and the steps the
	// engine executed on a thread's behalf (System.EngineCounters).
	EngineCounters = machine.Counters
	// SeerOptions selects which Seer mechanisms are active.
	SeerOptions = core.Options
	// Mode classifies how a transaction committed (Table 3 rows).
	Mode = policy.Mode
	// ModeCounts is a histogram over commit modes.
	ModeCounts = policy.ModeCounts
	// Snapshot is one interval of the telemetry timeline
	// (Report.Timeline; enabled by Config.MetricsInterval).
	Snapshot = telemetry.Snapshot
	// TraceEvent is one entry of the bounded runtime event log
	// (enabled by Config.TraceEvents).
	TraceEvent = telemetry.Event
	// AttemptSpan is one transaction attempt with ground-truth abort
	// attribution (enabled by Config.TraceAttempts).
	AttemptSpan = telemetry.Span
	// InferenceSnapshot is one point of the Seer inference-quality
	// trajectory: the learned locking scheme scored against the
	// ground-truth conflict matrix (Report.Inference).
	InferenceSnapshot = telemetry.QualitySnapshot
	// Topology describes the machine shape as sockets × physical cores
	// × SMT threads (see Config.Topology).
	Topology = topology.Topology
)

// ParseTopology decodes a "<sockets>s<cores>c<threads>t" spec, e.g.
// "2s8c2t" — the format of the -topology CLI flags.
func ParseTopology(spec string) (Topology, error) { return topology.Parse(spec) }

// MaxHWThreads is the ceiling on a topology's total hardware threads.
const MaxHWThreads = machine.MaxHWThreads

// NilAddr is the null simulated-memory address.
const NilAddr = mem.Nil

// Commit-mode values (re-exported from the runtime).
const (
	ModeHTM       = policy.ModeHTM
	ModeHTMAux    = policy.ModeHTMAux
	ModeHTMTx     = policy.ModeHTMTx
	ModeHTMCore   = policy.ModeHTMCore
	ModeHTMTxCore = policy.ModeHTMTxCore
	ModeSGL       = policy.ModeSGL
	ModeSTM       = policy.ModeSTM
	NumModes      = policy.NumModes
)

// PolicyKind selects the TM runtime scheduling policy.
type PolicyKind string

// Available policies. The Seer variants beyond PolicySeer exist for the
// evaluation's overhead and ablation studies (Figures 4 and 5).
const (
	// PolicyHLE models hardware lock elision: one hardware attempt and
	// no contention management (lemming prone).
	PolicyHLE PolicyKind = "HLE"
	// PolicyRTM is the standard retry loop with lemming avoidance and a
	// single-global-lock fall-back (the ATS-like baseline).
	PolicyRTM PolicyKind = "RTM"
	// PolicySCM serializes restarting transactions on one auxiliary
	// lock (Software-assisted Conflict Management).
	PolicySCM PolicyKind = "SCM"
	// PolicyBackoff is randomized exponential backoff: an aborted
	// transaction sleeps a uniform draw from a per-thread window that
	// doubles on abort and halves on commit — the contention manager
	// whose competitive bounds Alistarh et al. prove in "The
	// Transactional Conflict Problem". It uses no conflict information,
	// sitting between blind retry (RTM) and precise serialization
	// (Seer/Oracle).
	PolicyBackoff PolicyKind = "Backoff"
	// PolicySeer is the full Seer scheduler.
	PolicySeer PolicyKind = "Seer"
	// PolicyPhased is the phased-TM runtime ("PhTM"): a PhTM-Star-style
	// global mode word (HW / SW / GLOCK) with deferred/undeferred
	// transition counters. Capacity-aborting blocks are deferred to a
	// software (STM) commit path built on the conflict registry instead
	// of serializing the machine on the global lock; conflict-aborting
	// blocks go through the usual retry machinery.
	PolicyPhased PolicyKind = "PhTM"
	// PolicyATS is Adaptive Transaction Scheduling (Yoo & Lee, SPAA'08):
	// a per-thread contention-intensity signal gating one central
	// dispatch lock — the coarse-grained imprecise-information scheduler
	// of the paper's Table 1, provided as an extra baseline.
	PolicyATS PolicyKind = "ATS"
	// PolicyOracle serializes an aborted transaction behind its exact
	// conflictor using the simulator's omniscient feedback — an upper
	// bound no real HTM can implement (see policy.Oracle). Comparing it
	// with PolicySeer measures how much of the value of precise
	// feedback Seer's inference recovers.
	PolicyOracle PolicyKind = "Oracle"
	// PolicySeq executes bodies directly with no synchronization; used
	// single-threaded as the speedup baseline.
	PolicySeq PolicyKind = "seq"
)

// Config describes a simulated system: machine, HTM, memory and policy.
// Every field is part of the simulated system or its observation; engine
// mechanics such as the speculation depth (DefaultSpeculativeQuantum) are
// not configurable, so no field can move a schedule without modelling
// anything.
type Config struct {
	// Threads is the number of worker (= hardware) threads to use.
	Threads int
	// PhysCores is the number of physical cores; hardware threads t and
	// t+PhysCores are hyperthread siblings. Must divide HWThreads.
	// Ignored when Topology is set.
	PhysCores int
	// HWThreads is the machine's total hardware thread count. 0 means
	// Threads; either way it is rounded up to a multiple of PhysCores
	// (idle hardware threads are harmless). A non-zero value below
	// Threads is rejected. Ignored when Topology is set.
	HWThreads int
	// Topology, when non-zero, pins the full machine shape — sockets,
	// physical cores per socket, SMT threads per core — and overrides
	// the flat PhysCores/HWThreads pair. Build one with the topology
	// constructors via ParseTopology ("2s8c2t") or a Topology literal.
	Topology Topology
	// RemoteAccessCost, with a multi-socket Topology, adds this many
	// virtual cycles to every load and store that touches a cache line
	// homed on a different socket than the accessing thread (lines are
	// interleaved across sockets by line index). 0, or a single-socket
	// machine, models uniform memory — the pre-topology behaviour.
	RemoteAccessCost uint64
	// Seed drives every pseudo-random choice in the run.
	Seed int64
	// MemWords bounds the simulated memory: addresses at or past it
	// fault, and Alloc fails past it. It does not size host memory,
	// which backs only the prefix of the memory a run touches, so
	// generous headroom costs nothing until used.
	MemWords int
	// NumAtomicBlocks is the number of distinct atomic blocks (static
	// transactions) the program contains; Seer allocates one lock and
	// one statistics row per block.
	NumAtomicBlocks int
	// MaxAttempts is the hardware retry budget before the fall-back
	// (5 in the paper's evaluation).
	MaxAttempts int
	// Policy selects the TM runtime.
	Policy PolicyKind
	// Seer configures the Seer scheduler (ignored by other policies).
	Seer SeerOptions
	// HTM sets the simulated HTM's capacities and noise.
	HTM HTMConfig
	// Cost is the virtual-time cost model.
	Cost CostModel
	// MaxCycles aborts runaway runs (0 = unlimited).
	MaxCycles uint64
	// TraceEvents enables the bounded event log, retaining the most
	// recent N runtime events (begins, commits, aborts, fall-backs).
	// 0 disables tracing.
	TraceEvents int
	// MetricsInterval enables the telemetry timeline: every
	// MetricsInterval virtual cycles, the runtime cuts a snapshot of
	// per-interval throughput, abort mix, commit modes, lock waits and
	// the scheduler's Θ/locking-scheme state into Report.Timeline.
	// Sampling is driven by the deterministic virtual clock, so the
	// timeline is reproducible for a fixed seed. 0 disables it at zero
	// hot-path cost.
	MetricsInterval uint64
	// TraceAttempts enables attempt-level span tracing with ground-truth
	// abort attribution: every hardware attempt and fall-back becomes a
	// span recording begin/end cycle, outcome, retry index and — for
	// aborts — the conflicting cache line, the aborter thread and the
	// atomic-block pair, information real HTM never exposes. Spans go to
	// per-thread append-only buffers; recording never advances the
	// virtual clock, so schedules are identical with tracing on or off,
	// and disabling it (the default) keeps the hot path allocation-free.
	TraceAttempts bool
	// AttributionCounters enables the abort-attribution accumulators
	// (ground-truth conflict matrix, aborts by cause × block, cascade
	// depth histogram, hot conflict lines) without retaining per-attempt
	// spans — the cheap mode the telemetry timeline and `seerstat
	// -explain` use. Implied by TraceAttempts.
	AttributionCounters bool
	// Recycler, when non-nil, supplies the large simulator buffers
	// (simulated memory words, registry line states, per-thread HTM
	// contexts, the observability recorder's span, event and snapshot
	// storage) from a previous System built with the same Recycler, and
	// receives them back from System.Release. The harness keeps one per
	// grid worker so replicas are rebuilt without reallocating
	// multi-megabyte state per cell; a replica clears only the memory
	// its own cell touches. A Recycler must only ever be used from one
	// goroutine at a time.
	Recycler *Recycler
}

// Recycler carries reusable simulator buffers between System lifetimes
// (see Config.Recycler). Its memory arrays are as large as the largest
// touched prefix of any System built on it, not its largest MemWords.
// The zero value is ready to use.
type Recycler struct {
	mem mem.Buffers
	htm htm.Buffers
	obs telemetry.Buffers
}

// DefaultSpeculativeQuantum is the depth of the engine's speculative
// multi-tick quanta: the maximum number of pure compute ticks a thread may
// run past its conflict-free horizon without yielding, journaled in a
// per-thread undo log and rolled back if an earlier-virtual-time thread
// dooms the speculating transaction (DESIGN.md §6i). Every System runs at
// this depth; it is engine mechanics, not configuration. Deep enough to
// cover the long conflict-free compute stretches of the STAMP-style
// workloads, small enough that a rollback discards bounded work and the
// per-thread journal stays cache-resident (two words per entry).
const DefaultSpeculativeQuantum = 64

// DefaultConfig mirrors the paper's testbed: 8 hardware threads on 4
// physical cores, 5 hardware attempts, full Seer options.
func DefaultConfig() Config {
	return Config{
		Threads:         8,
		PhysCores:       4,
		Seed:            1,
		MemWords:        1 << 20,
		NumAtomicBlocks: 1,
		MaxAttempts:     5,
		Policy:          PolicySeer,
		Seer:            core.DefaultOptions(),
		HTM:             htm.DefaultConfig(),
		Cost:            machine.DefaultCostModel(),
		MaxCycles:       0,
	}
}

// Named simulated-memory faults, matchable with errors.Is. A worker that
// touches an address past the end of memory, or allocates past its
// capacity, fails System.Run with an error wrapping one of them. The same
// faults while the program sets up its data — Alloc, Peek, Poke outside a
// Run — stay panics, with an error value wrapping the sentinel.
var (
	ErrOutOfMemory = mem.ErrOutOfMemory
	ErrBadAddress  = mem.ErrBadAddress
)

// Named configuration errors, matchable with errors.Is. Validate (and
// therefore NewSystem) wraps these with the offending value.
var (
	ErrThreads         = errors.New("seer: Threads must be positive")
	ErrNumAtomicBlocks = errors.New("seer: NumAtomicBlocks must be positive")
	ErrMaxAttempts     = errors.New("seer: MaxAttempts must be positive")
	ErrHWThreads       = errors.New("seer: HWThreads < Threads")
	ErrPolicy          = errors.New("seer: unknown policy")
)

// valid reports whether p names a registered policy.
func (p PolicyKind) valid() bool {
	switch p {
	case PolicyHLE, PolicyRTM, PolicySCM, PolicyBackoff, PolicyATS, PolicyOracle, PolicySeer, PolicyPhased, PolicySeq:
		return true
	}
	return false
}

// machineTopology resolves the machine shape. An explicit Topology wins;
// otherwise the legacy flat pair is resolved as before: HWThreads falls
// back to Threads, PhysCores to one hardware thread per core, and the
// thread count is rounded up to a multiple of the physical cores (idle
// hardware threads are harmless).
func (c Config) machineTopology() (topology.Topology, error) {
	if !c.Topology.IsZero() {
		return c.Topology, c.Topology.Validate()
	}
	hw := c.HWThreads
	if hw == 0 {
		hw = c.Threads
	}
	phys := c.PhysCores
	if phys == 0 {
		phys = hw
	}
	if phys > 0 && hw%phys != 0 {
		hw += phys - hw%phys
	}
	return topology.FromFlat(hw, phys)
}

// Validate checks the configuration without building a system. All
// violations are reported as wrapped named errors (ErrThreads,
// ErrNumAtomicBlocks, ErrMaxAttempts, ErrHWThreads, ErrPolicy, or the
// topology package's sentinels for machine-shape violations), so callers
// can match with errors.Is.
func (c Config) Validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("%w, got %d", ErrThreads, c.Threads)
	}
	if c.NumAtomicBlocks <= 0 {
		return fmt.Errorf("%w, got %d", ErrNumAtomicBlocks, c.NumAtomicBlocks)
	}
	if c.MaxAttempts <= 0 {
		return fmt.Errorf("%w, got %d", ErrMaxAttempts, c.MaxAttempts)
	}
	if c.Topology.IsZero() && c.HWThreads != 0 && c.HWThreads < c.Threads {
		return fmt.Errorf("%w: %d < %d", ErrHWThreads, c.HWThreads, c.Threads)
	}
	if !c.Policy.valid() {
		return fmt.Errorf("%w %q", ErrPolicy, c.Policy)
	}
	topo, err := c.machineTopology()
	if err != nil {
		return err
	}
	if !c.Topology.IsZero() && topo.Threads() < c.Threads {
		return fmt.Errorf("%w: topology %s has %d < %d", ErrHWThreads,
			topo, topo.Threads(), c.Threads)
	}
	return machine.Config{Topo: topo}.Validate()
}

// Worker is the code run by one thread of the simulated program.
type Worker func(*Thread)

// System is one simulated machine plus TM runtime, ready to run a
// transactional program.
type System struct {
	cfg   Config
	eng   *machine.Engine
	mem   *mem.Memory
	htm   *htm.Unit
	sgl   spinlock.Lock
	sched *core.Seer // nil unless the policy is Seer
	pol   policy.Policy
	obs   *telemetry.Recorder // nil unless an observability Config field is set
}

// NewSystem builds a system from cfg. The returned system is single-use
// per Run for meaningful statistics, though repeated Runs are allowed and
// accumulate counters.
func NewSystem(cfg Config) (*System, error) {
	return newSystem(cfg, DefaultSpeculativeQuantum)
}

// newSystem is NewSystem with the engine's speculation depth as a
// parameter. Only the tests choose another depth: 0 is the per-tick
// reference engine every speculated schedule must reproduce.
func newSystem(cfg Config, quantum int) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.machineTopology()
	if err != nil {
		return nil, err
	}
	hw := topo.Threads()
	mach := machine.Config{
		Topo:        topo,
		Seed:        cfg.Seed,
		MaxCycles:   cfg.MaxCycles,
		Cost:        cfg.Cost,
		SpecQuantum: quantum,
	}
	eng, err := machine.New(mach)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, eng: eng}
	var memBuf *mem.Buffers
	var htmBuf *htm.Buffers
	var obsBuf *telemetry.Buffers
	if r := cfg.Recycler; r != nil {
		memBuf, htmBuf, obsBuf = &r.mem, &r.htm, &r.obs
	}
	s.mem = mem.NewRecycled(cfg.MemWords, 1, memBuf)
	// Spin-lock acquires and waits run on the lock words in s.mem, dooms
	// included (machine.Ctx.AcquireWord, WaitWord).
	spinlock.Wire(eng, s.mem)
	// Peek (the one tickless shared read — spinlock.LockedFast funnels
	// through it) must close an open speculative quantum before reading,
	// or a speculated poll would see lock words from before earlier
	// virtual-time threads ran. See machine.Engine.SpecBarrier.
	s.mem.SetSpecBarrier(eng.SpecBarrier)
	if cfg.RemoteAccessCost > 0 && topo.Sockets > 1 {
		// NUMA model: cache lines are interleaved across sockets by line
		// index; touching a line homed on another socket costs extra
		// cycles. Pure in (hw, line), so determinism is preserved.
		t, penalty := topo, cfg.RemoteAccessCost
		s.mem.SetAccessCost(func(hw int, ln mem.Line) uint64 {
			if int(ln)%t.Sockets == t.SocketOf(hw) {
				return 0
			}
			return penalty
		})
	}
	s.htm = htm.NewRecycled(s.mem, mach, cfg.HTM, htmBuf)
	s.sgl = spinlock.New(s.mem)

	switch cfg.Policy {
	case PolicyHLE:
		s.pol = &policy.HLE{SGL: s.sgl}
	case PolicyRTM:
		s.pol = &policy.RTM{SGL: s.sgl, MaxAttempts: cfg.MaxAttempts}
	case PolicySCM:
		s.pol = &policy.SCM{SGL: s.sgl, Aux: spinlock.New(s.mem), MaxAttempts: cfg.MaxAttempts}
	case PolicyBackoff:
		s.pol = policy.NewBackoff(s.sgl, cfg.MaxAttempts, hw)
	case PolicyATS:
		s.pol = policy.NewATS(s.sgl, spinlock.New(s.mem), cfg.MaxAttempts, hw)
	case PolicyOracle:
		s.pol = policy.NewOracle(s.sgl, cfg.MaxAttempts)
	case PolicySeer:
		rng := machine.NewRand(uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
		s.sched = core.New(cfg.NumAtomicBlocks, mach, s.mem, s.htm, cfg.Seer, &rng)
		s.pol = &policy.Seer{SGL: s.sgl, MaxAttempts: cfg.MaxAttempts, Sched: s.sched}
	case PolicyPhased:
		s.pol = policy.NewPhased(s.sgl, cfg.MaxAttempts, hw)
	case PolicySeq:
		s.pol = &policy.Sequential{}
	default:
		return nil, fmt.Errorf("seer: unknown policy %q", cfg.Policy)
	}
	if cfg.TraceEvents > 0 || cfg.MetricsInterval > 0 || cfg.TraceAttempts || cfg.AttributionCounters {
		s.obs = s.newRecorder(topo, obsBuf)
	}
	s.htm.SetDoomHook(s.obs.DoomHook())
	s.eng.SetTickHook(s.obs.TickHook())
	return s, nil
}

// newRecorder builds the observability recorder: its sinks are switched
// by the four observability Config fields, its sources are whatever this
// system has to sample.
func (s *System) newRecorder(topo topology.Topology, buf *telemetry.Buffers) *telemetry.Recorder {
	cfg := s.cfg
	o := telemetry.Options{
		Threads: topo.Threads(), Blocks: cfg.NumAtomicBlocks, Topology: topo,
		RingCapacity: cfg.TraceEvents, Interval: cfg.MetricsInterval,
		Spans: cfg.TraceAttempts, Attribution: cfg.AttributionCounters,
		// Conflicts on the single-global-lock word are fall-back protocol
		// mechanics, not workload data conflicts: keep them out of the
		// ground-truth matrix (spans still carry their attribution).
		IgnoredLines: []mem.Line{mem.LineOf(s.sgl.Addr())},
		Quantum:      s.eng.QuantumCounters,
	}
	if sched := s.sched; sched != nil {
		o.Scheduler = func() (float64, float64, int, uint64) {
			th := sched.Thresholds()
			return th.Th1, th.Th2, sched.SchemePairs(), sched.SchemeReuseHits
		}
		o.Learned = func(dst *stats.Matrices) [][]int {
			sched.SnapshotLearned(dst)
			return sched.Scheme()
		}
	}
	if pp, ok := s.pol.(*policy.Phased); ok {
		o.Phase = pp.PhaseCounters
	}
	return telemetry.NewRecycled(o, buf)
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// HWThreads returns the simulated machine's resolved hardware thread
// count (after topology defaults are applied).
func (s *System) HWThreads() int { return s.eng.Config().HWThreads() }

// Topology returns the simulated machine's resolved shape.
func (s *System) Topology() Topology { return s.eng.Config().Topo }

// PolicyName returns the active policy's name.
func (s *System) PolicyName() string { return s.pol.Name() }

// EngineCounters returns the event loop's work totals over the system's
// lifetime — what the simulator, not the simulated machine, did. They are
// deterministic for a fixed seed; diff them for per-run numbers.
func (s *System) EngineCounters() EngineCounters { return s.eng.Counters() }

// Scheduler exposes the Seer scheduler for inspection (nil for other
// policies).
func (s *System) Scheduler() *core.Seer { return s.sched }

// Recorder returns the system's observability recorder: the event log,
// timeline, attempt spans, attribution and their exporters. It is nil —
// a valid recorder with every sink off — unless Config.TraceEvents,
// MetricsInterval, TraceAttempts or AttributionCounters is set, and
// accumulates across repeated Runs. The recorder and every slice borrowed
// from it (Recorder.Spans, Recorder.TruthMatrix) are valid until Release;
// only what a Report owns (Timeline, Inference) and the copies
// Recorder.Events returns may be read afterwards.
func (s *System) Recorder() *telemetry.Recorder { return s.obs }

// Alloc reserves n words of simulated memory. Past capacity it panics
// with an error wrapping ErrOutOfMemory; called by a worker, that fails
// the Run instead.
func (s *System) Alloc(n int) Addr { return s.mem.Alloc(n) }

// AllocAligned reserves n words starting at a cache-line boundary.
func (s *System) AllocAligned(n int) Addr { return s.mem.AllocAligned(n) }

// AllocLines reserves n whole cache lines.
func (s *System) AllocLines(n int) Addr { return s.mem.AllocLines(n) }

// FreeWords returns the remaining unallocated simulated memory.
func (s *System) FreeWords() int { return s.mem.Free() }

// Peek reads simulated memory outside a run (setup and verification).
func (s *System) Peek(a Addr) uint64 { return s.mem.Peek(a) }

// Poke writes simulated memory outside a run (setup and verification).
func (s *System) Poke(a Addr, v uint64) { s.mem.Poke(a, v) }

// Memory exposes the raw simulated memory for substrate-level code
// (internal data structures, harness checks).
func (s *System) Memory() *mem.Memory { return s.mem }

// Release returns the system's large buffers to the Recycler it was
// built with (a no-op without one), making them available to the next
// System built on that Recycler. The system and its Recorder must not be
// used afterwards; Reports it returned stay valid.
func (s *System) Release() {
	if r := s.cfg.Recycler; r != nil {
		s.mem.Release(&r.mem)
		s.htm.Release(&r.htm)
		s.obs.Release(&r.obs)
	}
}

// Run executes the workers (one per hardware thread, worker i on thread
// i) until all return, and reports the run. It is an error to pass more
// workers than configured threads.
func (s *System) Run(workers []Worker) (Report, error) {
	if len(workers) > s.cfg.Threads {
		return Report{}, fmt.Errorf("seer: %d workers for %d threads", len(workers), s.cfg.Threads)
	}
	threads := make([]*policy.Thread, len(workers))
	bodies := make([]func(*machine.Ctx), len(workers))
	for i, w := range workers {
		if w == nil {
			continue
		}
		worker := w
		idx := i
		bodies[i] = func(ctx *machine.Ctx) {
			pt := policy.NewThread(ctx, s.mem, s.htm)
			pt.Obs = s.obs.Thread(ctx.ID())
			if s.sched != nil {
				pt.Seer = s.sched.NewThreadState(ctx)
				pt.Seer.Obs = pt.Obs
			}
			threads[idx] = pt
			worker(&Thread{sys: s, pt: pt})
		}
	}
	s.obs.BeginRun()
	makespan, err := s.eng.Run(bodies)
	if err != nil {
		return Report{}, err
	}
	return s.buildReport(makespan, threads), nil
}
