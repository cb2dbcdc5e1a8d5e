package seer_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"seer"
	"seer/internal/adversary"
	"seer/internal/stamp"
	"seer/internal/telemetry"
)

// TestObservabilityExportsGolden pins every observability export byte for
// byte: one small fixed cell (Seer, 8 threads, a 6-block clique, all four
// observability Config fields on) whose timeline CSV, Chrome trace,
// conflict DOT, explain digest and filtered event dump are concatenated
// and compared with
// testdata/observability.golden (regenerate with `go test -run
// ObservabilityExportsGolden -update .`).
func TestObservabilityExportsGolden(t *testing.T) {
	wl := adversary.New(adversary.Clique(6), 40)
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Seed = 7
	// Short scheme-update and tuning epochs, so the brief run still logs
	// scheme and tune events.
	cfg.Seer.UpdateEvery = 24
	cfg.Seer.EpochExecs = 64
	cfg.TraceEvents = 512
	cfg.MetricsInterval = 1 << 11
	cfg.TraceAttempts = true
	cfg.AttributionCounters = true
	sys, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}

	kinds, err := telemetry.ParseKinds("abort,doom,lock+,lock-,scheme,tune,wait,fallback")
	if err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	section := func(name string, write func(io.Writer) error) {
		fmt.Fprintf(&all, "==== %s ====\n", name)
		if err := write(&all); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	section("timeline.csv", rep.WriteTimelineCSV)
	rec := sys.Recorder()
	section("chrome-trace", rec.WriteChromeTrace)
	section("conflict.dot", rec.WriteDOT)
	section("explain", func(w io.Writer) error { return rec.WriteExplain(w, 5) })
	section("events", func(w io.Writer) error {
		events := rec.Events()
		fmt.Fprintf(w, "%d total (%s)\n", rec.EventTotal(), telemetry.FormatSummary(events))
		telemetry.DumpEvents(w, events, kinds)
		return nil
	})
	section("summary", func(w io.Writer) error {
		_, err := io.WriteString(w, rep.Summary())
		return err
	})

	golden := filepath.Join("testdata", "observability.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run ObservabilityExportsGolden -update .`): %v", err)
	}
	gotLines, wantLines := bytes.Split(all.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range wantLines {
		if i >= len(gotLines) || !bytes.Equal(gotLines[i], wantLines[i]) {
			var got []byte
			if i < len(gotLines) {
				got = gotLines[i]
			}
			t.Fatalf("observability exports diverge from %s at line %d (regenerate with -update only if intentional):\n got: %.200s\nwant: %.200s",
				golden, i+1, got, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("observability exports have %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// TestChromeTraceCarriesEverySpan: the Chrome trace is the one file export
// of the attempt spans, so its "attempt" slices must rebuild every Span
// field for field (End = ts+dur), in Recorder.Spans order, on the cell the
// observability golden pins. Every record covers its Run, so on a System
// that runs the cell twice, under RTM, Seer and PhTM, each Run's trace
// holds exactly that Run's spans: one per attempt and fall-back its Report
// counts, and on every track each span begins after its predecessor ends.
func TestChromeTraceCarriesEverySpan(t *testing.T) {
	wl := adversary.New(adversary.Clique(6), 40)
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Seed = 7
	cfg.Seer.UpdateEvery = 24
	cfg.Seer.EpochExecs = 64
	cfg.TraceEvents = 512
	cfg.MetricsInterval = 1 << 11
	cfg.TraceAttempts = true
	cfg.AttributionCounters = true
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices.Concat(chromeTraceSpans(t, sys.Recorder(), cfg.Threads)...)) == 0 {
		t.Fatal("the cell retained no spans")
	}

	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer, seer.PolicyPhased} {
		cfg.Policy = pol
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 2; run++ {
			rep, err := sys.Run(wl.Workers(cfg.Threads))
			if err != nil {
				t.Fatal(err)
			}
			want := rep.HWAttempts + rep.Fallbacks
			if p := rep.Phased; p != nil {
				want += p.SWAttempts
			}
			var n uint64
			for hw, track := range chromeTraceSpans(t, sys.Recorder(), cfg.Threads) {
				n += uint64(len(track))
				for i := 1; i < len(track); i++ {
					if track[i].Begin < track[i-1].End {
						t.Errorf("%s run %d hw %d: span %d begins at cycle %d, before span %d ends at %d",
							pol, run, hw, i, track[i].Begin, i-1, track[i-1].End)
						break
					}
				}
			}
			if n != want {
				t.Errorf("%s run %d: the Chrome trace holds %d spans for the Run's %d attempts and fall-backs", pol, run, n, want)
			}
		}
	}
}

// chromeTraceSpans rebuilds each hardware thread's spans from the
// "attempt" slices of rec's Chrome trace and checks them against
// Recorder.Spans.
func chromeTraceSpans(t *testing.T, rec *telemetry.Recorder, threads int) [][]telemetry.Span {
	t.Helper()
	var b bytes.Buffer
	if err := rec.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			Ts, Dur   uint64
			Tid       int16
			Args      json.RawMessage
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := make([][]telemetry.Span, threads)
	for _, e := range doc.TraceEvents {
		if e.Cat != "attempt" {
			continue
		}
		sp := telemetry.Span{Begin: e.Ts, End: e.Ts + e.Dur, HW: e.Tid, AborterHW: -1, AborterBlock: -1, Line: telemetry.NoLine}
		var outcome string
		if _, err := fmt.Sscanf(e.Name, "tx%d/%s", &sp.Block, &outcome); err != nil {
			t.Fatalf("slice name %q: %v", e.Name, err)
		}
		for sp.Outcome <= telemetry.OutcomeFallback && sp.Outcome.String() != outcome {
			sp.Outcome++
		}
		// Absent args keep the unattributed, non-abort defaults above.
		args := struct {
			Retry        *uint8
			Status       string
			Depth        *uint16
			AborterHW    *int16 `json:"aborter_hw"`
			AborterBlock *int16 `json:"aborter_block"`
			Line         *uint32
		}{&sp.Retry, "0", &sp.Depth, &sp.AborterHW, &sp.AborterBlock, &sp.Line}
		if err := json.Unmarshal(e.Args, &args); err != nil {
			t.Fatal(err)
		}
		status, err := strconv.ParseUint(args.Status, 0, 32)
		if err != nil {
			t.Fatal(err)
		}
		sp.Status = uint32(status)
		got[sp.HW] = append(got[sp.HW], sp)
	}
	for hw := range got {
		if want := rec.Spans(hw); !slices.Equal(got[hw], want) {
			t.Errorf("hw %d: the Chrome trace rebuilds %d spans, Recorder.Spans holds %d:\n got: %+v\nwant: %+v",
				hw, len(got[hw]), len(want), got[hw], want)
		}
	}
	return got
}

// obsCell runs one Seer cell at 8 threads on the given Recycler, with every
// observability sink on — the shape of the ledger's infer-obs cells — or
// with none.
func obsCell(tb testing.TB, g adversary.Graph, ops int, seed int64, rec *seer.Recycler, sinks bool) (*seer.System, seer.Report) {
	tb.Helper()
	wl := adversary.New(g, ops)
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Seed = seed
	if sinks {
		cfg.TraceEvents = 4096
		cfg.MetricsInterval = 4096
		cfg.TraceAttempts = true
		cfg.AttributionCounters = true
	}
	cfg.Recycler = rec
	sys, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, rep
}

// TestReportOutlivesReleaseAndReuse pins the ownership line: a Report owns
// its Timeline (per-snapshot slices included) and Inference, so releasing
// the system and recording a different cell on the same Recycler's storage
// changes nothing the Report renders.
func TestReportOutlivesReleaseAndReuse(t *testing.T) {
	render := func(rep seer.Report) string {
		var b bytes.Buffer
		b.WriteString(rep.Summary())
		if err := json.NewEncoder(&b).Encode(rep.Timeline); err != nil { // conflict pairs, cascade histograms
			t.Fatal(err)
		}
		return b.String()
	}
	rec := new(seer.Recycler)
	sysA, repA := obsCell(t, adversary.Clique(6), 400, 7, rec, true)
	if len(repA.Timeline) < 4 || len(repA.Inference) != len(repA.Timeline) {
		t.Fatalf("cell A cut %d snapshots and %d inference points", len(repA.Timeline), len(repA.Inference))
	}
	before := render(repA)
	sysA.Release()
	sysB, repB := obsCell(t, adversary.Ring(8), 1200, 11, rec, true)
	if len(repB.Timeline) <= len(repA.Timeline) {
		t.Fatalf("cell B (%d snapshots) does not overwrite all of cell A's (%d)", len(repB.Timeline), len(repA.Timeline))
	}
	if after := render(repA); after != before {
		t.Errorf("cell A's report changed after Release and reuse:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The same line within one system: a second Run must not reach the
	// first Report either.
	beforeB := render(repB)
	if _, err := sysB.Run(nil); err != nil {
		t.Fatal(err)
	}
	if after := render(repB); after != beforeB {
		t.Error("a second Run changed the first Run's report")
	}
}

// mallocsDuring returns the heap objects f allocates.
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestObsCellSteadyStateAllocs pins the recycling: on a warm Recycler a
// cell with every sink on records into the previous cell's storage, so it
// allocates like the same cell with no sink at all — a few dozen objects
// more (the Report's owned copies, the attribution matrices), where every
// cut and every transaction used to allocate.
func TestObsCellSteadyStateAllocs(t *testing.T) {
	rec := new(seer.Recycler)
	cell := func(sinks bool) func() {
		return func() {
			sys, rep := obsCell(t, adversary.Clique(32), 2000, 1, rec, sinks)
			_ = rep.Summary()
			sys.Release()
		}
	}
	first := mallocsDuring(cell(true))
	second := mallocsDuring(cell(true))
	none := mallocsDuring(cell(false))
	t.Logf("first cell %d allocs, second %d, with no sink %d", first, second, none)
	if second > first {
		t.Errorf("second obs-on cell allocates %d objects, more than the first (%d)", second, first)
	}
	if second > none+64 {
		t.Errorf("obs-on cell on a warm Recycler allocates %d objects, the same cell with no sink %d: want within 64", second, none)
	}
}

// TestCellMemoryLengthInvariant pins that a cell's host memory does not
// grow with its length: the same Seer cell run for 4× the iterations may
// allocate only a little more, with every sink off and with each sink
// whose storage is bounded on (the event ring; attribution without spans,
// which under Seer also arms the learned scorer). The timeline and the
// spans keep one entry per interval or attempt, so they are left out.
// Each cell runs on a Recycler warmed by the long cell, so what remains is
// what the runtime itself grows per transaction.
func TestCellMemoryLengthInvariant(t *testing.T) {
	// slack covers the Report's owned copy of the scorer's trajectory, one
	// small entry per default scorer interval.
	const n, slack = 1000, 16 << 10
	for _, sink := range []struct {
		name string
		set  func(*seer.Config)
	}{
		{"off", func(*seer.Config) {}},
		{"ring", func(c *seer.Config) { c.TraceEvents = 4096 }},
		{"attribution+scorer", func(c *seer.Config) { c.AttributionCounters = true }},
	} {
		rec := new(seer.Recycler)
		cell := func(ops int) (alloc uint64, lockAcqs uint64) {
			wl := adversary.New(adversary.Clique(16), ops)
			cfg := stamp.Config(wl, 8, seer.Topology{})
			sink.set(&cfg)
			cfg.Recycler = rec
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys, rep, err := stamp.Run(wl, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			sys.Release()
			return after.TotalAlloc - before.TotalAlloc, rep.Seer.LockAcqEvents
		}
		cell(4 * n) // warm the Recycler to the long cell's sizes
		short, shortAcqs := cell(n)
		long, longAcqs := cell(4 * n)
		t.Logf("%s: %d ops %d B (%d lock acquisitions), %d ops %d B (%d)", sink.name, n, short, shortAcqs, 4*n, long, longAcqs)
		if longAcqs < 4*shortAcqs/2 || shortAcqs == 0 {
			t.Fatalf("%s: %d and %d tx-lock acquisitions: the cell does not exercise Seer's locks", sink.name, shortAcqs, longAcqs)
		}
		if long > short+slack {
			t.Errorf("%s: the %d-op cell allocates %d B, the %d-op cell %d B: more than %d B apart", sink.name, 4*n, long, n, short, slack)
		}
	}
}
