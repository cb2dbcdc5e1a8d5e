package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"seer/internal/htm"
	"seer/internal/stats"
)

// modeHTM is policy.ModeHTM's commit slot (policy sits above this package).
const modeHTM = 0

const conflict = htm.BitConflict | htm.BitRetry

// timelineOnly builds a recorder with just the timeline sink.
func timelineOnly(interval uint64, threads int) *Recorder {
	return New(Options{Threads: threads, Interval: interval})
}

// bind gives every handle of r a fresh ledger, as the start of a Run does,
// and returns the ledgers for the test to bump in the runtime's place.
func bind(r *Recorder) []Counters {
	c := make([]Counters, len(r.threads))
	for hw := range c {
		r.Bind(hw, &c[hw])
	}
	return c
}

// everyEvent calls the whole event vocabulary once.
func everyEvent(t *Thread) {
	t.BlockEnter(1)
	t.AttemptBegin(10)
	t.AttemptAbort(20, conflict)
	t.AttemptBegin(30)
	t.AttemptCommit(40)
	t.Fallback(50)
	t.FallbackEnd(60)
	t.Wait(70, LockCore)
	t.LockAcquired(80, 2, LockTx)
	t.LocksReleased(90, 1, LockTx)
	t.Phase(100, 1, 0)
	t.Scheme(110, 3)
	t.Tune(120, 0.3, 0.8)
	t.BlockExit()
}

// TestNilRecorderAndShardAreNoOps: a nil recorder and a nil per-thread
// handle (the recorder's shard for one hardware thread) accept every call.
func TestNilRecorderAndShardAreNoOps(t *testing.T) {
	var r *Recorder
	if r.Thread(3) != nil || r.Bind(3, &Counters{}) != nil || r.Timeline() != nil || r.Quality() != nil || r.Events() != nil ||
		r.EventTotal() != 0 || r.Spans(0) != nil || r.TruthMatrix() != nil ||
		r.TopPairs(5) != nil || r.TopLines(5) != nil {
		t.Fatalf("nil recorder leaked state")
	}
	if r.TickHook() != nil || r.DoomHook() != nil {
		t.Fatalf("nil recorder offers hooks")
	}
	r.BeginRun()
	r.Flush(1 << 20)
	for name, err := range map[string]error{
		"WriteChromeTrace": r.WriteChromeTrace(&bytes.Buffer{}),
		"WriteDOT":         r.WriteDOT(&bytes.Buffer{}),
		"WriteExplain":     r.WriteExplain(&bytes.Buffer{}, 5),
	} {
		if err == nil {
			t.Errorf("%s on a nil recorder must error", name)
		}
	}
	everyEvent(nil)
}

func TestNilShardZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() { everyEvent(nil) })
	if allocs != 0 {
		t.Fatalf("nil handle allocated %.1f per op, want 0", allocs)
	}
}

// TestSinksAreIndependent: every sink combination accepts the whole
// vocabulary, and a sink that is off exposes nothing and errors on export.
// The Chrome trace draws from the event log and the spans, so it errors
// only when both are off.
func TestSinksAreIndependent(t *testing.T) {
	for _, o := range []Options{
		{RingCapacity: 8},
		{Interval: 100},
		{Attribution: true},
		{Spans: true},
		{RingCapacity: 8, Interval: 100, Spans: true},
	} {
		o.Threads, o.Blocks = 2, 3
		r := New(o)
		r.BeginRun()
		bind(r)
		everyEvent(r.Thread(1))
		r.Flush(150)
		if got := len(r.Events()) > 0; got != (o.RingCapacity > 0) {
			t.Errorf("%+v: events retained = %v", o, got)
		}
		if got := len(r.Timeline()) > 0; got != (o.Interval > 0) {
			t.Errorf("%+v: timeline cut = %v", o, got)
		}
		if got := len(r.Spans(1)) > 0; got != o.Spans {
			t.Errorf("%+v: spans retained = %v", o, got)
		}
		if got := r.TruthMatrix() != nil; got != (o.Spans || o.Attribution) {
			t.Errorf("%+v: attribution on = %v", o, got)
		}
		if got := r.DoomHook() != nil; got != (o.Spans || o.Attribution) {
			t.Errorf("%+v: doom hook offered = %v", o, got)
		}
		if err := r.WriteChromeTrace(&bytes.Buffer{}); (err == nil) != (o.RingCapacity > 0 || o.Spans) {
			t.Errorf("%+v: WriteChromeTrace err = %v", o, err)
		}
		if err := r.WriteDOT(&bytes.Buffer{}); (err == nil) != (o.Spans || o.Attribution) {
			t.Errorf("%+v: WriteDOT err = %v", o, err)
		}
	}
}

// TestZeroIntervalDisablesTimeline: Interval 0 means no timeline sink and,
// with no scorer either, no interval clock at all.
func TestZeroIntervalDisablesTimeline(t *testing.T) {
	r := New(Options{Threads: 4, RingCapacity: 8})
	if r.TickHook() != nil {
		t.Fatalf("clockless recorder offers a tick hook")
	}
	r.BeginRun()
	bind(r)[0].Modes[modeHTM]++
	r.Flush(1 << 20)
	if r.Timeline() != nil || r.Quality() != nil {
		t.Fatalf("clockless recorder cut something: %v %v", r.Timeline(), r.Quality())
	}
}

func TestIntervalBoundaries(t *testing.T) {
	r := timelineOnly(100, 2)
	r.BeginRun()
	c := bind(r)
	c[0].Modes[modeHTM]++
	r.OnTick(50) // inside first interval: no snapshot yet
	if got := len(r.Timeline()); got != 0 {
		t.Fatalf("early snapshot: %d", got)
	}
	c[1].Modes[modeHTM]++
	r.OnTick(100) // boundary reached
	snaps := r.Timeline()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.StartCycle != 0 || s.EndCycle != 100 || s.Commits != 2 || s.Modes[modeHTM] != 2 {
		t.Fatalf("bad first snapshot: %+v", s)
	}
}

// TestMultiIntervalSkip: one tick jumping several intervals ahead must
// cut one snapshot per elapsed interval, not one total.
func TestMultiIntervalSkip(t *testing.T) {
	r := timelineOnly(10, 1)
	r.BeginRun()
	bind(r)[0].Paths[PathHW].Attempts++
	r.OnTick(35)
	snaps := r.Timeline()
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(snaps))
	}
	for i, s := range snaps {
		if s.Index != i || s.StartCycle != uint64(i*10) || s.EndCycle != uint64((i+1)*10) {
			t.Fatalf("snapshot %d boundaries wrong: %+v", i, s)
		}
	}
	// All activity lands in the first interval; the skipped ones are empty.
	if snaps[0].Attempts != 1 || snaps[1].Attempts != 0 || snaps[2].Attempts != 0 {
		t.Fatalf("attempts misattributed: %+v", snaps)
	}
}

// TestTimelineAttemptPaths: a snapshot's attempts and aborts are the
// hardware and software paths'; Seer's multi-CAS lock acquisitions are
// not attempts of the program's transactions and stay out.
func TestTimelineAttemptPaths(t *testing.T) {
	r := timelineOnly(100, 1)
	r.BeginRun()
	c := bind(r)
	c[0].Paths[PathHW].Attempts++
	c[0].Paths[PathHW].Aborts[htm.CauseConflict]++
	c[0].Paths[PathSW].Attempts++
	c[0].Paths[PathMultiCAS].Attempts += 2
	c[0].Paths[PathMultiCAS].Aborts[htm.CauseConflict]++
	r.Flush(100)
	if s := r.Timeline()[0]; s.Attempts != 2 || s.Aborts[htm.CauseConflict] != 1 {
		t.Fatalf("%d attempts, %d conflict aborts; want 2 and 1", s.Attempts, s.Aborts[htm.CauseConflict])
	}
}

func TestFlushShortRun(t *testing.T) {
	r := timelineOnly(1000, 1)
	r.BeginRun()
	c := bind(r)
	c[0].Modes[ModeSGL]++ // one fall-back
	r.Flush(42)           // run far shorter than one interval
	snaps := r.Timeline()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	if s := snaps[0]; s.StartCycle != 0 || s.EndCycle != 42 || s.Commits != 1 || s.Fallbacks != 1 {
		t.Fatalf("bad trailing snapshot: %+v", s)
	}
	// Flushing again at the same cycle must not duplicate the snapshot.
	r.Flush(42)
	if got := len(r.Timeline()); got != 1 {
		t.Fatalf("re-flush duplicated: %d", got)
	}
}

func TestFlushPartialTail(t *testing.T) {
	r := timelineOnly(100, 1)
	r.BeginRun()
	r.Flush(250) // 2 full intervals + partial [200,250)
	snaps := r.Timeline()
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(snaps))
	}
	last := snaps[2]
	if last.StartCycle != 200 || last.EndCycle != 250 || last.Cycles() != 50 {
		t.Fatalf("partial tail wrong: %+v", last)
	}
}

func TestProbeSampledPerSnapshot(t *testing.T) {
	calls := 0
	r := New(Options{Threads: 1, Interval: 10, Scheduler: func() (float64, float64, int) {
		calls++
		return float64(calls), 2 * float64(calls), calls
	}})
	r.BeginRun()
	r.OnTick(20)
	snaps := r.Timeline()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	if snaps[0].Th1 != 1 || snaps[1].Th1 != 2 || snaps[1].Th2 != 4 || snaps[1].SchemePairs != 2 {
		t.Fatalf("source values wrong: %+v", snaps)
	}
}

// TestSchedulerCountsDiffedPerInterval: Seer's scheme reuse and the
// phased runtime's mode transitions are ledger counts like any other, so
// each snapshot carries the interval's delta; the phase source's
// occupancy is diffed the same way.
func TestSchedulerCountsDiffedPerInterval(t *testing.T) {
	r := New(Options{Threads: 2, Interval: 10, Phase: func(now uint64) [3]uint64 { return [3]uint64{now - now/4, now / 4, 0} }})
	r.BeginRun()
	c := bind(r)
	c[0].SchemeReuse, c[1].PhaseTransitions = 3, 1
	r.OnTick(10)
	c[0].SchemeReuse, c[1].PhaseTransitions = 6, 3
	r.OnTick(20)
	snaps := r.Timeline()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	for i, want := range [][4]uint64{{3, 1, 8, 2}, {3, 2, 7, 3}} {
		s := snaps[i]
		if got := [4]uint64{s.SchemeReuse, s.PhaseTransitions, s.PhaseHWCycles, s.PhaseSWCycles}; got != want {
			t.Fatalf("interval %d: reuse, transitions, HW, SW = %v, want %v", i, got, want)
		}
	}
}

// TestParkSkippedDiffedPerInterval: the counter is cumulative; each
// snapshot must carry only the interval's delta.
func TestParkSkippedDiffedPerInterval(t *testing.T) {
	r := timelineOnly(10, 2)
	r.BeginRun()
	c := bind(r)
	c[0].LockWait, c[0].ParkSkipped = 120, 100
	r.OnTick(10)
	c[1].LockWait, c[1].ParkSkipped = 40, 40
	r.OnTick(20)
	snaps := r.Timeline()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	if snaps[0].ParkSkipped != 100 || snaps[1].ParkSkipped != 40 || snaps[0].LockWait != 120 {
		t.Fatalf("lock-wait diffs wrong: %+v", snaps)
	}
}

// TestBeginRunAcrossRuns: the engine clock, the ledgers and the phase
// occupancy restart with every run, and the timeline holds the current
// run's intervals only; interval diffs must stay correct across the
// rewind.
func TestBeginRunAcrossRuns(t *testing.T) {
	phase := func(now uint64) [3]uint64 { return [3]uint64{now, 0, 0} }
	r := New(Options{Threads: 2, Interval: 100, Phase: phase})
	for run, commits := range []uint64{1, 2} {
		r.BeginRun() // clock rewinds to 0, with fresh ledgers
		bind(r)[1].Modes[modeHTM] += commits
		r.Flush(150)
		snaps := r.Timeline()
		if len(snaps) != 2 {
			t.Fatalf("run %d: snapshots = %d, want 2", run, len(snaps))
		}
		s := snaps[0]
		if s.Index != 0 || s.StartCycle != 0 || s.Commits != commits || s.PhaseHWCycles != 100 {
			t.Fatalf("run %d: first interval wrong: %+v", run, s)
		}
		if s := snaps[1]; s.Index != 1 || s.StartCycle != 100 || s.Commits != 0 || s.PhaseHWCycles != 50 {
			t.Fatalf("run %d: second interval wrong: %+v", run, s)
		}
	}
}

// TestOnTickDeadlines: OnTick returns the next boundary, and an engine
// calls it only at ticks that reach the last one returned (from cycle 0
// on every run). A recorder driven that way cuts the same timeline as one
// driven at every tick, across two runs.
func TestOnTickDeadlines(t *testing.T) {
	every, deadline := timelineOnly(100, 2), timelineOnly(100, 2)
	calls, cut := 0, 0
	for run := 0; run < 2; run++ {
		every.BeginRun()
		deadline.BeginRun()
		ledgers := [][]Counters{bind(every), bind(deadline)}
		next := uint64(0)
		now := uint64(0)
		for i := uint64(0); i < 400; i++ {
			now += (i * 37) % 23 // some ticks repeat a cycle, some jump intervals
			for _, c := range ledgers {
				c[i%2].Modes[modeHTM]++
				c[0].Paths[PathHW].Attempts++
			}
			every.OnTick(now)
			if now >= next {
				next = deadline.OnTick(now)
				calls++
			}
		}
		every.Flush(now + 5)
		deadline.Flush(now + 5)
		want, got := every.Timeline(), deadline.Timeline()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: deadline calls cut %d snapshots, every tick %d:\n%+v\n%+v", run, len(got), len(want), got, want)
		}
		cut += len(want)
	}
	if cut < 40 || calls >= 400 {
		t.Fatalf("%d deadline calls cut %d snapshots over two runs", calls, cut)
	}
}

// TestOneClockCutsBothSnapshotKinds: the timeline and the inference-quality
// scorer share one interval clock, so on every run each Snapshot has a
// QualitySnapshot with the same index and end cycle, both restarting at
// index 0; with the timeline off the scorer still gets boundaries, at the
// default period.
func TestOneClockCutsBothSnapshotKinds(t *testing.T) {
	learned := func(dst *stats.Matrices) [][]int { return make([][]int, 2) }
	r := New(Options{Threads: 1, Blocks: 2, Interval: 100, Attribution: true, Learned: learned})
	for run := 0; run < 2; run++ {
		r.BeginRun()
		r.OnTick(230)
		r.Flush(250)
		snaps, quality := r.Timeline(), r.Quality()
		if len(snaps) != 3 || len(quality) != 3 {
			t.Fatalf("run %d cut %d snapshots and %d quality snapshots, want 3 and 3", run, len(snaps), len(quality))
		}
		for i := range snaps {
			if q := quality[i]; q.Index != i || snaps[i].Index != i || q.EndCycle != snaps[i].EndCycle {
				t.Fatalf("run %d boundary %d: quality %+v vs snapshot %d %d..%d", run, i, q, snaps[i].Index, snaps[i].StartCycle, snaps[i].EndCycle)
			}
		}
	}

	r = New(Options{Threads: 1, Blocks: 2, Attribution: true, Learned: learned})
	r.BeginRun()
	r.Flush(defaultPeriod + 5)
	if q := r.Quality(); len(q) != 2 || q[0].EndCycle != defaultPeriod || q[1].EndCycle != defaultPeriod+5 {
		t.Fatalf("scorer-only boundaries = %+v", q)
	}
	if r.Timeline() != nil {
		t.Fatalf("timeline cut with Interval 0")
	}
}

func TestCSVHeaderMatchesRecord(t *testing.T) {
	// The abort columns are named by htm.Cause slot.
	for c, want := range map[htm.Cause]string{
		htm.CauseConflict: "conflict", htm.CauseCapacity: "capacity", htm.CauseExplicit: "explicit",
		htm.CauseSpurious: "spurious", htm.CauseOther: "other",
	} {
		if CauseNames[c] != want {
			t.Fatalf("CauseNames[%d] = %q, want %q", c, CauseNames[c], want)
		}
	}
	h := CSVHeader()
	rec := CSVRecord(Snapshot{})
	if len(h) != len(rec) {
		t.Fatalf("header has %d columns, record has %d", len(h), len(rec))
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Snapshot{{Index: 0, EndCycle: 10}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want 2", len(lines))
	}
}
