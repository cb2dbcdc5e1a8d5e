package seer_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"seer"
	"seer/internal/adversary"
	"seer/internal/stamp"
	"seer/internal/telemetry"
)

// TestObservabilityExportsGolden pins every observability export byte for
// byte: one small fixed cell (Seer, 8 threads, a 6-block clique, all four
// observability Config fields on) whose timeline CSV and JSONL, Chrome
// event trace, spans JSONL, Chrome spans, conflict DOT, explain digest and
// filtered event dump are concatenated and compared with
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
	section("timeline.jsonl", rep.WriteTimelineJSONL)
	rec := sys.Recorder()
	section("chrome-trace", sys.WriteChromeTrace)
	section("spans.jsonl", rec.WriteSpansJSONL)
	section("spans-chrome", rec.WriteChromeSpans)
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
