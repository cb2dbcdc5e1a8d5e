package seer_test

import (
	"errors"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/mem"
	"seer/internal/policy"
	"seer/internal/stamp"
)

// TestThreadAccessors covers the Thread handle's surface.
func TestThreadAccessors(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicyRTM
	cfg.Threads = 2
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 12
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := sys.AllocAligned(1)
	ids := make([]int, 2)
	workers := make([]seer.Worker, 2)
	for i := range workers {
		idx := i
		workers[i] = func(th *seer.Thread) {
			ids[idx] = th.ID()
			before := th.Clock()
			th.Work(25)
			if th.Clock() < before+25 {
				t.Errorf("Work did not advance the clock")
			}
			if th.Rand() == nil {
				t.Errorf("nil Rand")
			}
			// Direct access outside transactions.
			d := th.Direct()
			d.Store(cell+seer.Addr(idx), 7)
			if d.Load(cell+seer.Addr(idx)) != 7 {
				t.Errorf("direct store/load roundtrip failed")
			}
			if d.ThreadID() != th.ID() {
				t.Errorf("Direct thread id mismatch")
			}
			th.Atomic(0, func(a seer.Access) { a.Work(1) })
			modes := th.Modes()
			if modes.Total() != 1 {
				t.Errorf("mode histogram = %v", modes)
			}
		}
	}
	if _, err := sys.Run(workers); err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("worker ids = %v", ids)
	}
}

// TestHWThreadsRounding: HWThreads is rounded up to a multiple of
// PhysCores rather than rejected.
func TestHWThreadsRounding(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 5
	cfg.HWThreads = 5
	cfg.PhysCores = 4
	cfg.MemWords = 1 << 12
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(make([]seer.Worker, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedRunsReportPerRun: a second Run on the same system works, and
// each Report's transaction counts cover its own Run: two identical 10-op
// Runs report 10 HTM commits each while the cell reads 20, and the second
// Run of an RTM intruder cell, whose queue the first Run drained, reports
// at most one abort per attempt. Under Seer, whose multi-CAS lock
// acquisitions are hardware transactions too, each Run's AbortRate is its
// HTM aborts over the policy's attempts plus those acquisitions.
func TestRepeatedRunsReportPerRun(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicyRTM
	cfg.Threads = 1
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 12
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell := sys.AllocAligned(1)
	worker := []seer.Worker{func(th *seer.Thread) {
		for n := 0; n < 10; n++ {
			th.Atomic(0, func(a seer.Access) { a.Store(cell, a.Load(cell)+1) })
		}
	}}
	for run := 1; run <= 2; run++ {
		rep, err := sys.Run(worker)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HTM.Commits != 10 || rep.HWAttempts != 10 {
			t.Fatalf("run %d: %d HTM commits in %d attempts, want 10 in 10", run, rep.HTM.Commits, rep.HWAttempts)
		}
	}
	if sys.Peek(cell) != 20 {
		t.Fatalf("cell = %d, want 20", sys.Peek(cell))
	}

	wl, err := stamp.New("intruder", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg = stamp.Config(wl, 8, seer.Topology{})
	cfg.Policy = seer.PolicyRTM
	sys, first, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sys.Run(wl.Workers(cfg.Threads))
	if err != nil {
		t.Fatal(err)
	}
	if first.HTM.Aborts == 0 || second.HWAttempts == 0 {
		t.Fatalf("first run %d aborts, second run %d attempts: the cell does not exercise the test", first.HTM.Aborts, second.HWAttempts)
	}
	if second.HTM.Aborts > second.HWAttempts || second.AbortRate() > 1 {
		t.Fatalf("second run: %d aborts in %d attempts (abort rate %.1f)", second.HTM.Aborts, second.HWAttempts, second.AbortRate())
	}

	if wl, err = stamp.New("intruder", 0.05); err != nil {
		t.Fatal(err)
	}
	cfg = stamp.Config(wl, 4, seer.Topology{})
	cfg.Policy = seer.PolicySeer
	if sys, first, err = stamp.Run(wl, cfg); err != nil {
		t.Fatal(err)
	}
	if second, err = sys.Run(wl.Workers(cfg.Threads)); err != nil {
		t.Fatal(err)
	}
	if first.Seer.MultiCASFail == 0 {
		t.Fatal("Seer cell has no multi-CAS aborts: the cell does not exercise the test")
	}
	for run, rep := range []seer.Report{first, second} {
		issued := rep.HWAttempts + rep.Seer.MultiCASOk + rep.Seer.MultiCASFail
		if rep.HTM.Commits+rep.HTM.Aborts != issued {
			t.Fatalf("Seer run %d: HTM counts %d commits + %d aborts, want %d issued", run+1, rep.HTM.Commits, rep.HTM.Aborts, issued)
		}
		if want := float64(rep.HTM.Aborts) / float64(issued); rep.AbortRate() != want {
			t.Fatalf("Seer run %d: abort rate %v, want %d aborts / %d issued = %v", run+1, rep.AbortRate(), rep.HTM.Aborts, issued, want)
		}
	}
}

// TestTunerSamplesPerRun: Seer's hill climber times its epochs on the
// virtual clock, which every Run restarts at cycle 0, so the epoch restarts
// with it. Every sample the tuner receives over two Runs of an adv-clique
// cell is a commits-per-cycle throughput, never the near-zero value an
// epoch begun in the previous Run's clock yields.
func TestTunerSamplesPerRun(t *testing.T) {
	wl, err := stamp.New("adv-clique", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 8, seer.Topology{})
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := len(sys.Scheduler().Tuner().History())
	if _, err := sys.Run(wl.Workers(cfg.Threads)); err != nil {
		t.Fatal(err)
	}
	hist := sys.Scheduler().Tuner().History()
	if first == 0 || len(hist) == first {
		t.Fatalf("%d tuner samples in the first Run, %d in the second: the cell does not exercise the test", first, len(hist)-first)
	}
	for i, s := range hist {
		if !(s.Value > 1e-6) {
			t.Errorf("sample %d of %d (first Run: %d) reads %g commits/cycle", i, len(hist), first, s.Value)
		}
	}
}

// TestTunerIncumbentGoesUnmeasured records a known divergence from a
// climber that re-measures its best point (ROADMAP item 24), on the cell
// where Fig 5's hill-climbing row costs most: Seer on intruder at scale 1
// on 8 threads, seed 1. The trajectory has 9 epochs; the incumbent Best()
// reports is the point of sample 3, and the 5 epochs after it only
// perturb that point and never measure it again, so its value is the one
// lucky epoch's. When the incumbent is re-measured, this test fails: flip
// it to require a re-measurement within the trajectory.
func TestTunerIncumbentGoesUnmeasured(t *testing.T) {
	wl, err := stamp.New("intruder", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Seed = 1
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuner := sys.Scheduler().Tuner()
	hist := tuner.History()
	best, value := tuner.Best()
	last := -1
	for i, s := range hist {
		if s.Point == best {
			last = i
		}
	}
	t.Logf("%d epochs, best %+v at %g commits/cycle, last measured at sample %d", len(hist), best, value, last)
	if len(hist) != 9 || tuner.Moves() != 9 {
		t.Fatalf("%d samples over %d moves, want 9", len(hist), tuner.Moves())
	}
	if last != 3 || hist[3].Value != value {
		t.Fatalf("incumbent last measured at sample %d, want sample 3 with Best's value %g", last, value)
	}
	if unmeasured := len(hist) - 1 - last; unmeasured != 5 {
		t.Fatalf("incumbent went %d epochs unmeasured, want 5", unmeasured)
	}
}

// TestPolicyNames: every public policy constructs and self-identifies.
func TestPolicyNames(t *testing.T) {
	for _, pol := range []seer.PolicyKind{
		seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM,
		seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer, seer.PolicySeq,
	} {
		cfg := seer.DefaultConfig()
		cfg.Policy = pol
		cfg.Threads = 1
		cfg.MemWords = 1 << 10
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if got := sys.PolicyName(); got != string(pol) {
			t.Fatalf("PolicyName = %q, want %q", got, pol)
		}
		if (pol == seer.PolicySeer) != (sys.Scheduler() != nil) {
			t.Fatalf("%s: scheduler presence wrong", pol)
		}
	}
}

// TestLivelockGuardSurfaced: MaxCycles violations come back as errors,
// not hangs.
func TestLivelockGuardSurfaced(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeq
	cfg.Threads = 1
	cfg.MemWords = 1 << 10
	cfg.MaxCycles = 500
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run([]seer.Worker{func(th *seer.Thread) {
		for {
			th.Work(10)
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("livelock not surfaced: %v", err)
	}
}

// TestLivelockMidTransactionLeavesSystemReusable: when MaxCycles trips
// while a hardware transaction is in flight, the abandoned attempt must
// take its reader bits and writerships out of the conflict registry with
// it, so a second Run on the same System starts from a clean slate and
// commits.
func TestLivelockMidTransactionLeavesSystemReusable(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicyRTM
	cfg.Threads = 1
	cfg.MemWords = 1 << 10
	cfg.MaxCycles = 2000
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := sys.AllocLines(1), sys.AllocLines(1), sys.AllocLines(1)
	_, err = sys.Run([]seer.Worker{func(th *seer.Thread) {
		th.Atomic(0, func(tx seer.Access) {
			tx.Load(a)
			tx.Store(b, 1)
			tx.Work(1 << 20) // far past MaxCycles, inside the transaction
		})
	}})
	if err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("livelock not surfaced: %v", err)
	}
	m := sys.Memory()
	clean := func(when string) {
		t.Helper()
		for _, addr := range []seer.Addr{a, b, c} {
			ln := mem.LineOf(addr)
			if r := m.LineReaders(ln); !r.Empty() {
				t.Errorf("%s: line %d still has readers %v", when, ln, r)
			}
			if w := m.LineWriter(ln); w != -1 {
				t.Errorf("%s: line %d still has writer %d", when, ln, w)
			}
		}
	}
	clean("after the abandoned run")
	if got := sys.Peek(b); got != 0 {
		t.Errorf("abandoned transaction published its store: %d", got)
	}
	rep, err := sys.Run([]seer.Worker{func(th *seer.Thread) {
		th.Atomic(0, func(tx seer.Access) { tx.Store(c, tx.Load(c)+5) })
	}})
	if err != nil {
		t.Fatalf("second Run on the same System: %v", err)
	}
	if rep.Commits() != 1 || rep.Modes[seer.ModeHTM] != 1 || sys.Peek(c) != 5 {
		t.Errorf("second Run: commits=%d htm=%d c=%d, want one hardware commit writing 5",
			rep.Commits(), rep.Modes[seer.ModeHTM], sys.Peek(c))
	}
	clean("after the second run")
}

// herdCell is the fault tests' cell: intruder under HLE on the 8-thread
// testbed, its buffers drawn from rec.
func herdCell(t *testing.T, rec *seer.Recycler) (stamp.Workload, seer.Config) {
	t.Helper()
	wl, err := stamp.New("intruder", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Policy = seer.PolicyHLE
	cfg.Recycler = rec
	return wl, cfg
}

// cleanHerdCell runs herdCell to completion on rec, releases it back into
// rec and returns its report.
func cleanHerdCell(t *testing.T, rec *seer.Recycler) seer.Report {
	t.Helper()
	wl, cfg := herdCell(t, rec)
	sys, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Release()
	return rep
}

// TestMaxCyclesInSGLHerdLeavesRecyclerClean: an 8-thread HLE cell whose
// MaxCycles trips halfway through, while its threads queue on the single
// global lock, hands its buffers back to a Recycler; a clean cell built on
// that Recycler must report exactly what it reports on a fresh one.
func TestMaxCyclesInSGLHerdLeavesRecyclerClean(t *testing.T) {
	want := cleanHerdCell(t, new(seer.Recycler))

	rec := new(seer.Recycler)
	wl, cfg := herdCell(t, rec)
	cfg.MaxCycles = want.MakespanCycles / 2
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(wl.Workers(cfg.Threads)); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("run with MaxCycles %d: err = %v, want the livelock verdict", cfg.MaxCycles, err)
	}
	if c := sys.EngineCounters(); c.Steps == 0 {
		t.Fatalf("engine counters %+v: the verdict did not land in the SGL herd", c)
	}
	sys.Release()
	if got := cleanHerdCell(t, rec).Summary(); got != want.Summary() {
		t.Fatalf("clean cell on the recycled buffers differs from a fresh Recycler:\n--- fresh ---\n%s--- recycled ---\n%s",
			want.Summary(), got)
	}
}

// TestMemoryFaultsFailRunAndLeaveRecyclerClean: a simulated-memory fault
// inside a run — a transaction loading past the end of memory, a worker
// allocating past capacity — fails System.Run with the named error while
// the other seven threads contend, leaves no line in the conflict registry,
// and hands the buffers back to a Recycler whose next clean cell reports
// exactly what a fresh Recycler's does.
func TestMemoryFaultsFailRunAndLeaveRecyclerClean(t *testing.T) {
	want := cleanHerdCell(t, new(seer.Recycler))
	for _, fc := range []struct {
		name string
		want error
		// fault builds the faulting worker once the cell is set up.
		fault func(sys *seer.System) seer.Worker
	}{{
		name: "transaction loads past the end of memory",
		want: seer.ErrBadAddress,
		fault: func(sys *seer.System) seer.Worker {
			a := sys.AllocLines(1)
			end := a + mem.LineWords + seer.Addr(sys.FreeWords()) // the first word past the end
			return func(th *seer.Thread) {
				th.Atomic(0, func(tx seer.Access) {
					tx.Store(a, tx.Load(a)+1)
					tx.Load(end)
				})
			}
		},
	}, {
		name: "worker allocates past capacity",
		want: seer.ErrOutOfMemory,
		fault: func(sys *seer.System) seer.Worker {
			return func(th *seer.Thread) {
				th.Work(500)
				sys.Alloc(sys.FreeWords() + 1)
			}
		},
	}} {
		t.Run(fc.name, func(t *testing.T) {
			rec := new(seer.Recycler)
			wl, cfg := herdCell(t, rec)
			sys, err := seer.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := wl.Setup(sys); err != nil {
				t.Fatal(err)
			}
			workers := wl.Workers(cfg.Threads)
			workers[3] = fc.fault(sys)
			if _, err := sys.Run(workers); !errors.Is(err, fc.want) {
				t.Fatalf("err = %v, want %v", err, fc.want)
			}
			m := sys.Memory()
			for ln := mem.Line(0); int(ln) < (cfg.MemWords+mem.LineWords-1)/mem.LineWords; ln++ {
				if r, w := m.LineReaders(ln), m.LineWriter(ln); !r.Empty() || w != -1 {
					t.Fatalf("line %d still registered after the failed run: readers %v, writer %d", ln, r, w)
				}
			}
			sys.Release()
			if got := cleanHerdCell(t, rec).Summary(); got != want.Summary() {
				t.Fatalf("clean cell on the recycled buffers differs from a fresh Recycler:\n--- fresh ---\n%s--- recycled ---\n%s",
					want.Summary(), got)
			}
		})
	}
}

// TestMemoryHelpers: allocation helpers and bounds.
func TestMemoryHelpers(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 1
	cfg.MemWords = 1 << 10
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	free := sys.FreeWords()
	a := sys.Alloc(3)
	if sys.FreeWords() != free-3 {
		t.Fatalf("FreeWords did not shrink")
	}
	b := sys.AllocLines(2)
	if b%8 != 0 {
		t.Fatalf("AllocLines misaligned: %d", b)
	}
	c := sys.AllocAligned(5)
	if c%8 != 0 {
		t.Fatalf("AllocAligned misaligned: %d", c)
	}
	sys.Poke(a, 11)
	if sys.Peek(a) != 11 {
		t.Fatalf("Peek/Poke roundtrip failed")
	}
	if seer.NilAddr != 0 {
		t.Fatalf("NilAddr = %d", seer.NilAddr)
	}
}

// TestWorkerPanicSurfaces: an application panic inside a worker comes
// back as an error naming the thread.
func TestWorkerPanicSurfaces(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeq
	cfg.Threads = 1
	cfg.MemWords = 1 << 10
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run([]seer.Worker{func(th *seer.Thread) {
		th.Work(1)
		panic("application bug")
	}})
	if err == nil || !strings.Contains(err.Error(), "application bug") {
		t.Fatalf("panic not surfaced: %v", err)
	}
}

// knobCallers names, for every field of the configuration structs, the
// non-test caller that needs it. The CLIs keep flag tables of their own.
var knobCallers = map[reflect.Type]map[string]string{
	reflect.TypeFor[seer.Config](): {
		"Threads Seed Policy MemWords NumAtomicBlocks MaxCycles": "every cell (stamp.Config)",
		"PhysCores HWThreads": "benchmark/cell.go, legacy, retire with ROADMAP item 1", "Seer": "fig4, fig5, ext",
		"Topology RemoteAccessCost": "scaling exhibit", "MaxAttempts": "attempts exhibit",
		"MetricsInterval": "timeline exhibit", "AttributionCounters": "inference exhibit", "HTM Cost": "DefaultConfig",
		"TraceEvents TraceAttempts": "seerstat -trace, -chrome-trace; ledger infer-obs", "Recycler": "RunGrid, ledger",
	},
	reflect.TypeFor[harness.Spec](): {
		"Workload Scale Policy Threads Runs Seed": "every cell", "SeerOpts": "fig4, fig5, ext",
		"Topology RemoteAccessCost": "scaling exhibit", "MaxAttempts": "attempts exhibit",
		"MetricsInterval": "timeline exhibit", "Inference": "inference exhibit",
	},
	reflect.TypeFor[harness.Options](): {"Scale Runs Seed Parallel Topology": "seerbench flags of those names"},
	reflect.TypeFor[seer.SeerOptions](): {
		"TxLocks CoreLocks HTMLockAcq HillClimb": "fig5 (harness.SeerVariants)",
		"ObjLocks SampleShift PreciseOracle":     "ext (harness extVariants)",
		"UpdateEvery EpochExecs":                 "examples/tuning",
	},
	// The policies' exported fields, all set by newSystem's policy table.
	reflect.TypeFor[policy.RTM]():     {"SGL MaxAttempts": "newSystem policy table"},
	reflect.TypeFor[policy.SCM]():     {"SGL Aux MaxAttempts": "newSystem policy table"},
	reflect.TypeFor[policy.Seer]():    {"SGL MaxAttempts Sched": "newSystem policy table"},
	reflect.TypeFor[policy.ATS]():     {"SGL Sched MaxAttempts": "newSystem policy table"},
	reflect.TypeFor[policy.Backoff](): {"SGL MaxAttempts": "newSystem policy table"},
	reflect.TypeFor[policy.Oracle]():  {"SGL MaxAttempts": "newSystem policy table"},
	reflect.TypeFor[policy.Phased]():  {"SGL MaxAttempts": "newSystem policy table"},
}

// TestKnobTable: every knob earns its keep; the structs and knobCallers name the same exported fields.
func TestKnobTable(t *testing.T) {
	for typ, callers := range knobCallers {
		var have []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				have = append(have, f.Name)
			}
		}
		want := strings.Fields(strings.Join(slices.Collect(maps.Keys(callers)), " "))
		slices.Sort(have)
		if slices.Sort(want); !slices.Equal(have, want) {
			t.Errorf("%v fields %v, knobCallers %v: every field needs one caller", typ, have, want)
		}
	}
}

// TestExamplesImportOnlyPublicAPI pins DESIGN §3: examples import package
// seer, never seer/internal/..., which no program outside this module can.
func TestExamplesImportOnlyPublicAPI(t *testing.T) {
	files, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(path, "seer/internal/") {
				t.Errorf("%s imports %s; examples import only package seer", file, path)
			}
		}
	}
}
