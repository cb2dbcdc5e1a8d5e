package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// seerstat runs the command in-process and returns its standard output.
func seerstat(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-workload", "intruder", "-scale", "0.05", "-threads", "4"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("seerstat %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// eventLines returns the lines of the -trace n dump that follow its header.
func eventLines(t *testing.T, out string, n int) []string {
	t.Helper()
	_, dump, found := strings.Cut(out, fmt.Sprintf("\nLast %d runtime events (", n))
	if !found {
		t.Fatalf("no event dump in output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	return lines[1:] // lines[0] is the rest of the header
}

// TestTraceDumpUnderEveryPolicy: -trace N prints the retained events whether
// or not the policy has a scheduler section to print before them.
func TestTraceDumpUnderEveryPolicy(t *testing.T) {
	for _, pol := range []string{"RTM", "Seer"} {
		out := seerstat(t, "-policy", pol, "-trace", "2000")
		if got := len(eventLines(t, out, 2000)); got != 2000 {
			t.Errorf("-policy %s -trace 2000 dumped %d events, want 2000", pol, got)
		}
		if hasScheme := strings.Contains(out, "Locking scheme (locksToAcquire)"); hasScheme != (pol == "Seer") {
			t.Errorf("-policy %s: scheduler section printed = %v", pol, hasScheme)
		}
	}
}

// TestTraceKindsFilter: -trace-kinds keeps only the named kinds in the dump.
func TestTraceKindsFilter(t *testing.T) {
	lines := eventLines(t, seerstat(t, "-policy", "RTM", "-trace", "2000", "-trace-kinds", "abort"), 2000)
	if len(lines) == 0 {
		t.Fatalf("abort filter left nothing of a contended run's last 2000 events")
	}
	for _, ln := range lines {
		if !strings.Contains(ln, " abort ") {
			t.Errorf("filtered dump has a non-abort line: %q", ln)
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-trace-kinds", "bogus"}, &bytes.Buffer{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("unknown kind: exit %d, stderr %q", code, stderr.String())
	}
}

// TestChromeTraceIgnoresTraceN: -chrome-trace sizes its own event log, so
// adding -trace N leaves the trace file byte-identical and only limits the
// stdout dump to the last N events.
func TestChromeTraceIgnoresTraceN(t *testing.T) {
	dir := t.TempDir()
	trace := func(name string, args ...string) (doc []byte, stdout string) {
		path := filepath.Join(dir, name)
		stdout = seerstat(t, append(args, "-scale", "0.1", "-chrome-trace", path)...)
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return doc, stdout
	}
	alone, _ := trace("alone.json")
	withN, out := trace("with-trace.json", "-trace", "5")
	if !bytes.Equal(alone, withN) {
		t.Errorf("-trace 5 changed the Chrome trace: %d bytes alone, %d with -trace 5", len(alone), len(withN))
	}
	if got := len(eventLines(t, out, 5)); got != 5 {
		t.Errorf("-trace 5 -chrome-trace dumped %d events, want 5", got)
	}
}

// TestWideShapesFit: seerstat sizes a cell by the shared recipe, so the
// wide shapes seerbench runs — and a thread count above the testbed's 8,
// which grows the flat machine — build and run here too.
func TestWideShapesFit(t *testing.T) {
	for _, args := range [][]string{
		{"-threads", "64", "-topology", "2s16c2t", "-scale", "0.1", "-policy", "RTM"},
		{"-threads", "16"},
	} {
		if out := seerstat(t, append(args, "-summary")...); !strings.Contains(out, "threads="+args[1]+"\n") {
			t.Errorf("seerstat %v: summary does not report %s threads:\n%s", args, args[1], out)
		}
	}
}

// TestSummaryMatchesHarness: seerstat and the harness (so seerbench) run
// the same cell for the same parameters, on the testbed and on a wide shape.
func TestSummaryMatchesHarness(t *testing.T) {
	for _, c := range []struct {
		threads int
		topo    string
	}{{8, ""}, {32, "2s8c2t"}} {
		spec := harness.Spec{Workload: "intruder", Scale: 0.05, Policy: seer.PolicySeer, Threads: c.threads, Seed: 3}
		if c.topo != "" {
			var err error
			if spec.Topology, err = seer.ParseTopology(c.topo); err != nil {
				t.Fatal(err)
			}
		}
		res, err := harness.RunOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := seerstat(t, "-threads", strconv.Itoa(c.threads), "-topology", c.topo, "-seed", "3", "-summary")
		if want := res.Reports[0].Summary(); got != want {
			t.Errorf("%dt %s: seerstat -summary differs from harness.RunOne:\n--- seerstat ---\n%s--- harness ---\n%s",
				c.threads, c.topo, got, want)
		}
	}
}

// TestJSONCarriesTimeline: -json's "timeline" array is the JSON reader of
// the metrics timeline, so it must decode to exactly the Report.Timeline
// of the same cell run through the harness.
func TestJSONCarriesTimeline(t *testing.T) {
	spec := harness.Spec{Workload: "intruder", Scale: 0.05, Policy: seer.PolicySeer, Threads: 4, Seed: 1, MetricsInterval: 8192}
	res, err := harness.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Timeline []seer.Snapshot `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(seerstat(t, "-json", "-metrics-interval", "8192")), &doc); err != nil {
		t.Fatal(err)
	}
	want := res.Reports[0].Timeline
	if len(want) < 2 || !reflect.DeepEqual(doc.Timeline, want) {
		t.Errorf("-json timeline (%d intervals) differs from the harness's Report.Timeline (%d):\n got: %+v\nwant: %+v",
			len(doc.Timeline), len(want), doc.Timeline, want)
	}
}

// TestRenderedOutputsGolden pins seerstat's own renderers byte for byte:
// the -timeline view (engine-counter and phased-mode lines included) under
// Seer and PhTM, and the -json document, at scale 0.05. The outputs are
// concatenated and compared with testdata/seerstat.golden (regenerate with
// `go test ./cmd/seerstat -run RenderedOutputsGolden -update`).
func TestRenderedOutputsGolden(t *testing.T) {
	var all bytes.Buffer
	for _, args := range [][]string{
		{"-policy", "Seer", "-timeline", "-metrics-interval", "8192"},
		{"-policy", "PhTM", "-timeline", "-metrics-interval", "8192"},
		{"-policy", "Seer", "-json"},
	} {
		fmt.Fprintf(&all, "==== seerstat %s ====\n", strings.Join(args, " "))
		all.WriteString(seerstat(t, args...))
	}
	golden := filepath.Join("testdata", "seerstat.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/seerstat -run RenderedOutputsGolden -update`): %v", err)
	}
	gotLines, wantLines := strings.Split(all.String(), "\n"), strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			got := ""
			if i < len(gotLines) {
				got = gotLines[i]
			}
			t.Fatalf("seerstat output diverges from %s at line %d:\n got: %.200s\nwant: %.200s", golden, i+1, got, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("seerstat output has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// flagCallers names, for every seerstat flag, the user who needs it.
var flagCallers = map[string]string{
	"-workload -threads -scale -seed -policy": "every inspection", "-topology -remote-cost": "CI wide smokes",
	"-summary": "CI digest smokes", "-json": "rendered-outputs golden", "-trace -trace-kinds": "TUTORIAL event dumps",
	"-timeline -metrics-interval": "TUTORIAL timelines", "-explain -explain-top": "TUTORIAL attribution",
	"-timeline-csv -chrome-trace -conflict-dot": "observability exports",
}

// TestFlagTable: the flag set and flagCallers name the same flags.
func TestFlagTable(t *testing.T) {
	var usage bytes.Buffer
	run([]string{"-h"}, &usage, &usage)
	have := strings.Fields(strings.Join(regexp.MustCompile(`(?m)^  -\S+`).FindAllString(usage.String(), -1), " "))
	want := strings.Fields(strings.Join(slices.Collect(maps.Keys(flagCallers)), " "))
	if slices.Sort(want); !slices.Equal(have, want) {
		t.Errorf("flags %v, flagCallers %v: every flag needs one caller", have, want)
	}
}
