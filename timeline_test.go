package seer_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"seer"
)

// buildTimelineSystem constructs a contended counter workload with
// interval metrics and, when traceN > 0, the event log and attempt spans
// enabled.
func buildTimelineSystem(t *testing.T, pol seer.PolicyKind, interval uint64, traceN int) (*seer.System, []seer.Worker) {
	t.Helper()
	cfg := seer.DefaultConfig()
	cfg.Policy = pol
	cfg.Threads = 4
	cfg.PhysCores = 2
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 1 << 32
	cfg.MetricsInterval = interval
	cfg.TraceEvents = traceN
	cfg.TraceAttempts = traceN > 0
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	counter := sys.AllocAligned(1)
	workers := make([]seer.Worker, cfg.Threads)
	for i := range workers {
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < 300; n++ {
				th.Atomic(0, func(a seer.Access) {
					a.Store(counter, a.Load(counter)+1)
					a.Work(10)
				})
				th.Work(5)
			}
		}
	}
	return sys, workers
}

// TestTimelineInvariants: with MetricsInterval set, the Timeline is
// non-empty, contiguous, closed at the makespan, and its commit total
// matches the report's.
func TestTimelineInvariants(t *testing.T) {
	sys, workers := buildTimelineSystem(t, seer.PolicySeer, 2048, 0)
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timeline) == 0 {
		t.Fatalf("Timeline empty with MetricsInterval set")
	}
	var commits uint64
	for i, s := range rep.Timeline {
		if s.Index != i {
			t.Fatalf("snapshot %d has index %d", i, s.Index)
		}
		if i > 0 && s.StartCycle != rep.Timeline[i-1].EndCycle {
			t.Fatalf("gap between snapshots %d and %d", i-1, i)
		}
		commits += s.Commits
	}
	if first := rep.Timeline[0]; first.StartCycle != 0 {
		t.Fatalf("timeline starts at %d, want 0", first.StartCycle)
	}
	if last := rep.Timeline[len(rep.Timeline)-1]; last.EndCycle != rep.MakespanCycles {
		t.Fatalf("timeline ends at %d, makespan is %d", last.EndCycle, rep.MakespanCycles)
	}
	if commits != rep.Commits() {
		t.Fatalf("timeline commits %d != report commits %d", commits, rep.Commits())
	}
	// Under Seer the probe must report live thresholds.
	for _, s := range rep.Timeline {
		if s.Th1 == 0 || s.Th2 == 0 {
			t.Fatalf("Seer snapshot missing threshold probe: %+v", s)
		}
	}
	if sys.Recorder() == nil {
		t.Fatalf("Recorder() nil with MetricsInterval set")
	}
}

// TestTimelineShortRun: a run far shorter than the interval still yields
// exactly one (partial) snapshot.
func TestTimelineShortRun(t *testing.T) {
	sys, workers := buildTimelineSystem(t, seer.PolicyRTM, 1<<40, 0)
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timeline) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(rep.Timeline))
	}
	s := rep.Timeline[0]
	if s.StartCycle != 0 || s.EndCycle != rep.MakespanCycles || s.Commits != rep.Commits() {
		t.Fatalf("partial snapshot wrong: %+v (makespan %d)", s, rep.MakespanCycles)
	}
}

// TestTimelineDisabled: with every observability field zero the recorder
// must be entirely absent.
func TestTimelineDisabled(t *testing.T) {
	sys, workers := buildTimelineSystem(t, seer.PolicyRTM, 0, 0)
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline != nil {
		t.Fatalf("Timeline non-nil with metrics disabled")
	}
	if sys.Recorder() != nil {
		t.Fatalf("Recorder() non-nil with observability disabled")
	}
}

// TestTimelineExportsDeterministic: two same-seed runs must export
// byte-identical CSV and Chrome trace documents.
func TestTimelineExportsDeterministic(t *testing.T) {
	exports := func() (csv, chrome string) {
		sys, workers := buildTimelineSystem(t, seer.PolicySeer, 2048, 4096)
		rep, err := sys.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b2 bytes.Buffer
		if err := rep.WriteTimelineCSV(&b1); err != nil {
			t.Fatal(err)
		}
		if err := sys.Recorder().WriteChromeTrace(&b2); err != nil {
			t.Fatal(err)
		}
		return b1.String(), b2.String()
	}
	csv1, chrome1 := exports()
	csv2, chrome2 := exports()
	if csv1 != csv2 {
		t.Fatalf("CSV export not deterministic")
	}
	if chrome1 != chrome2 {
		t.Fatalf("Chrome trace export not deterministic")
	}
	if lines := strings.Count(csv1, "\n"); lines < 2 {
		t.Fatalf("CSV export trivially small: %d lines", lines)
	}
	if !strings.Contains(chrome1, `"traceEvents"`) || !strings.Contains(chrome1, `"ph":"X"`) {
		t.Fatalf("Chrome trace missing duration events:\n%.300s", chrome1)
	}
}

// TestChromeTraceRequiresTracing: synthesizing a Chrome trace with neither
// an event log nor attempt spans is an error, not silence.
func TestChromeTraceRequiresTracing(t *testing.T) {
	sys, workers := buildTimelineSystem(t, seer.PolicyRTM, 0, 0)
	if _, err := sys.Run(workers); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sys.Recorder().WriteChromeTrace(&b); err == nil {
		t.Fatalf("WriteChromeTrace succeeded without tracing")
	}
}

// TestTraceEventsAccessor: the recorder's Events view mirrors the retained
// event log, and is nil when the log is off.
func TestTraceEventsAccessor(t *testing.T) {
	sys, workers := buildTimelineSystem(t, seer.PolicyRTM, 0, 256)
	if _, err := sys.Run(workers); err != nil {
		t.Fatal(err)
	}
	evs := sys.Recorder().Events()
	if len(evs) == 0 {
		t.Fatalf("TraceEvents empty with tracing enabled")
	}
	sysOff, workersOff := buildTimelineSystem(t, seer.PolicyRTM, 0, 0)
	if _, err := sysOff.Run(workersOff); err != nil {
		t.Fatal(err)
	}
	if sysOff.Recorder().Events() != nil {
		t.Fatalf("TraceEvents non-nil with tracing disabled")
	}
}

// BenchmarkMetricsOverhead compares a run with telemetry disabled against
// one with interval metrics enabled. The disabled case must add no
// allocations on the hot path (a nil recorder hands out nil handles).
func BenchmarkMetricsOverhead(b *testing.B) {
	for _, bc := range []struct {
		name     string
		interval uint64
	}{
		{"disabled", 0},
		{"interval4k", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := seer.DefaultConfig()
				cfg.Policy = seer.PolicyRTM
				cfg.Threads = 4
				cfg.PhysCores = 2
				cfg.NumAtomicBlocks = 1
				cfg.MemWords = 1 << 14
				cfg.MaxCycles = 1 << 32
				cfg.MetricsInterval = bc.interval
				sys, err := seer.NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				counter := sys.AllocAligned(1)
				workers := make([]seer.Worker, cfg.Threads)
				for w := range workers {
					workers[w] = func(th *seer.Thread) {
						for n := 0; n < 200; n++ {
							th.Atomic(0, func(a seer.Access) {
								a.Store(counter, a.Load(counter)+1)
								a.Work(10)
							})
							th.Work(5)
						}
					}
				}
				if _, err := sys.Run(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestInferenceSharesTimelineClockAcrossRuns: the inference-quality
// trajectory is cut by the same interval clock as the timeline, and both
// cover one Run, so each of two Runs on one System reports both from index
// 0 with the same boundaries (the quality clock used to be a separate one
// that was never rewound between runs).
func TestInferenceSharesTimelineClockAcrossRuns(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = 4
	cfg.PhysCores = 2
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 14
	cfg.MaxCycles = 1 << 32
	cfg.MetricsInterval = 4096
	cfg.AttributionCounters = true
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := sys.AllocAligned(1)
	workers := make([]seer.Worker, cfg.Threads)
	for i := range workers {
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < 300; n++ {
				th.Atomic(0, func(a seer.Access) {
					a.Store(counter, a.Load(counter)+1)
					a.Work(10)
				})
				th.Work(5)
			}
		}
	}
	for run := 1; run <= 2; run++ {
		rep, err := sys.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Timeline) < 2 {
			t.Fatalf("run %d: %d timeline intervals; the test needs several", run, len(rep.Timeline))
		}
		if len(rep.Inference) != len(rep.Timeline) {
			t.Fatalf("run %d: %d inference snapshots but %d timeline intervals", run, len(rep.Inference), len(rep.Timeline))
		}
		for i, s := range rep.Timeline {
			if q := rep.Inference[i]; s.Index != i || q.Index != i || q.EndCycle != s.EndCycle {
				t.Fatalf("run %d boundary %d: inference %d ends at %d, timeline interval %d at %d", run, i, q.Index, q.EndCycle, s.Index, s.EndCycle)
			}
		}
	}
}

// TestOneLedgerAcrossRuns: the Report and the timeline read one per-thread
// ledger and both cover one Run, so on each of two Runs on one System the
// Run's snapshots, from index 0 to the makespan, sum to that Run's Report:
// commits per mode, fall-backs, backoff sleeps, attempts (hardware ones,
// plus the software path's under PhTM), outcomes (Report.HTM and
// PhasedReport.STM, less Seer's multi-CAS lock acquisitions, which the
// timeline leaves out), PhTM's mode transitions and phase cycles, which
// also sum to the makespan, and the engine's speculative quanta
// (Report.Quantum). Every eighth execution writes more lines than
// the HTM holds, so each policy also falls back and PhTM also runs its
// software path.
func TestOneLedgerAcrossRuns(t *testing.T) {
	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySCM, seer.PolicySeer, seer.PolicyBackoff, seer.PolicyPhased} {
		cfg := seer.DefaultConfig()
		cfg.Policy = pol
		cfg.Threads = 4
		cfg.PhysCores = 2
		cfg.NumAtomicBlocks = 2
		cfg.MemWords = 1 << 14
		cfg.MaxCycles = 1 << 32
		cfg.MetricsInterval = 2048
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counter := sys.AllocAligned(1)
		wide := cfg.HTM.WriteSetLines + 16
		workers := make([]seer.Worker, cfg.Threads)
		for i := range workers {
			own := sys.AllocLines(wide)
			workers[i] = func(th *seer.Thread) {
				for n := 0; n < 200; n++ {
					if n%8 == 7 {
						th.Atomic(1, func(a seer.Access) {
							for l := 0; l < wide; l++ {
								a.Store(own+seer.Addr(l*8), uint64(n))
							}
						})
					}
					th.Atomic(0, func(a seer.Access) {
						a.Store(counter, a.Load(counter)+1)
						a.Work(10)
					})
					th.Work(5)
				}
			}
		}
		for run := 1; run <= 2; run++ {
			rep, err := sys.Run(workers)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s run %d", pol, run)
			if tl := rep.Timeline; tl[0].Index != 0 || tl[0].StartCycle != 0 || tl[len(tl)-1].EndCycle != rep.MakespanCycles {
				t.Fatalf("%s: timeline spans intervals %d..%d, cycles %d..%d, for a %d-cycle Run",
					where, tl[0].Index, tl[len(tl)-1].Index, tl[0].StartCycle, tl[len(tl)-1].EndCycle, rep.MakespanCycles)
			}
			var sum seer.Snapshot
			var phaseCycles uint64
			var quantum seer.QuantumReport
			for _, s := range rep.Timeline {
				quantum.Grants += s.QuantumGrants
				quantum.Ticks += s.QuantumTicks
				quantum.Rollbacks += s.QuantumRollbacks
				quantum.RollbackTicks += s.QuantumRollbackTicks
				for m := range sum.Modes {
					sum.Modes[m] += s.Modes[m]
				}
				sum.Attempts += s.Attempts
				for c := range sum.Aborts {
					sum.Aborts[c] += s.Aborts[c]
				}
				sum.Fallbacks += s.Fallbacks
				sum.BackoffWaits += s.BackoffWaits
				sum.BackoffCycles += s.BackoffCycles
				sum.SchemeReuse += s.SchemeReuse
				sum.PhaseTransitions += s.PhaseTransitions
				phaseCycles += s.PhaseHWCycles + s.PhaseSWCycles + s.PhaseGLOCKCycles
			}
			if rep.Fallbacks == 0 {
				t.Fatalf("%s: no fall-backs; the workload does not exercise them", where)
			}
			if quantum != *rep.Quantum || quantum.Grants == 0 {
				t.Errorf("%s: timeline quanta %+v, report %+v", where, quantum, *rep.Quantum)
			}
			for m := seer.Mode(0); m < seer.NumModes; m++ {
				if sum.Modes[m] != rep.Modes[m] {
					t.Errorf("%s: timeline %s commits %d, report %d", where, m, sum.Modes[m], rep.Modes[m])
				}
			}
			if sum.Fallbacks != rep.Fallbacks {
				t.Errorf("%s: timeline fall-backs %d, report %d", where, sum.Fallbacks, rep.Fallbacks)
			}
			attempts := rep.HWAttempts
			var stm seer.HTMCounters
			if p := rep.Phased; p != nil {
				if p.SWAttempts == 0 {
					t.Fatalf("%s: no software attempts; the workload does not exercise that path", where)
				}
				attempts += p.SWAttempts
				stm = p.STM
			}
			if sum.Attempts != attempts {
				t.Errorf("%s: timeline attempts %d, report %d", where, sum.Attempts, attempts)
			}
			// Report.HTM is the policy's hardware attempts plus the
			// multi-CAS ones: less those, its commits are the
			// hardware-mode commits and its aborts the timeline's.
			htmCommits, htmAborts := rep.HTM.Commits, rep.HTM.Aborts
			if sr := rep.Seer; sr != nil {
				htmCommits -= sr.MultiCASOk
				htmAborts -= sr.MultiCASFail
			}
			var hwModes, aborts uint64
			for m := seer.Mode(0); m < seer.NumModes; m++ {
				if m != seer.ModeSGL && m != seer.ModeSTM {
					hwModes += sum.Modes[m]
				}
			}
			for _, n := range sum.Aborts {
				aborts += n
			}
			if htmCommits != hwModes || stm.Commits != sum.Modes[seer.ModeSTM] {
				t.Errorf("%s: report commits %d HTM / %d STM, timeline %d hardware-mode / %d STM-mode",
					where, htmCommits, stm.Commits, hwModes, sum.Modes[seer.ModeSTM])
			}
			if htmAborts+stm.Aborts != aborts || htmAborts == 0 {
				t.Errorf("%s: report aborts %d HTM + %d STM, timeline %d", where, htmAborts, stm.Aborts, aborts)
			}
			if rep.Seer == nil {
				byCause := [...]uint64{
					rep.HTM.ConflictAborts + stm.ConflictAborts, rep.HTM.CapacityAborts + stm.CapacityAborts,
					rep.HTM.ExplicitAborts + stm.ExplicitAborts, rep.HTM.SpuriousAborts + stm.SpuriousAborts,
				}
				// Snapshot.Aborts is indexed conflict, capacity, explicit, spurious, other.
				if got := [...]uint64{sum.Aborts[0], sum.Aborts[1], sum.Aborts[2], sum.Aborts[3]}; got != byCause {
					t.Errorf("%s: timeline aborts by cause %v, report %v", where, got, byCause)
				}
			}
			if b := rep.Backoff; b != nil {
				if b.Waits == 0 {
					t.Fatalf("%s: no backoff sleeps; the workload does not exercise them", where)
				}
				if sum.BackoffWaits != b.Waits || sum.BackoffCycles != b.Cycles {
					t.Errorf("%s: timeline backoff %d waits / %d cycles, report %d / %d",
						where, sum.BackoffWaits, sum.BackoffCycles, b.Waits, b.Cycles)
				}
			}
			if p := rep.Phased; p != nil {
				if p.Transitions == 0 {
					t.Fatalf("%s: no mode transitions; the workload does not exercise them", where)
				}
				if sum.PhaseTransitions != p.Transitions {
					t.Errorf("%s: timeline %d mode transitions, report %d", where, sum.PhaseTransitions, p.Transitions)
				}
				if mc := p.ModeCycles; phaseCycles != rep.MakespanCycles || mc[0]+mc[1]+mc[2] != rep.MakespanCycles {
					t.Errorf("%s: timeline %d phase cycles, report %v, makespan %d", where, phaseCycles, mc, rep.MakespanCycles)
				}
			}
			if sr := rep.Seer; sr != nil && (sr.SchemeUpdates == 0 || sum.SchemeReuse > sr.SchemeUpdates) {
				t.Errorf("%s: %d scheme updates, %d of them reusing every row in the timeline", where, sr.SchemeUpdates, sum.SchemeReuse)
			}
		}
	}
}
