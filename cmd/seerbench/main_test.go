package main

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"seer/internal/harness"
)

// seerbench runs the command in-process and returns its exit code and
// both output streams.
func seerbench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUnknownExperiment: a typo exits 1 and lists every registered name.
func TestUnknownExperiment(t *testing.T) {
	code, stdout, stderr := seerbench("-experiment", "fig33")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and nothing rendered", code, stdout)
	}
	for _, name := range append(harness.Names(), "all") {
		if !strings.Contains(stderr, name) {
			t.Errorf("error does not list %q: %s", name, stderr)
		}
	}
}

// TestRunMatchesLibraryRender: the command prints exactly what the
// registry entry renders for the same options.
func TestRunMatchesLibraryRender(t *testing.T) {
	code, stdout, stderr := seerbench("-experiment", "lockfrac", "-scale", "0.02", "-runs", "1", "-workloads", "ssca2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	sel, err := harness.Select("lockfrac")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sel[0].Run(harness.Options{Scale: 0.02, Runs: 1, Seed: 1}, harness.Args{Workloads: []string{"ssca2"}})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	out.Render(&want)
	if stdout != want.String() {
		t.Fatalf("seerbench printed:\n%s\nlibrary renders:\n%s", stdout, want.String())
	}
}

// TestUsageLineListsRegistry: the doc comment's usage line names every
// -experiment value, in registry order.
func TestUsageLineListsRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := "//\tseerbench -experiment " + strings.Join(harness.Names(), "|") + "|all [flags]\n"
	if !strings.Contains(string(src), want) {
		t.Fatalf("main.go's usage line is out of date; want:\n%s", want)
	}
}

// TestCSVNeedsACapableExhibit: -csv with only exhibits that have no CSV
// form fails before any cell runs, names the ones that do, and leaves no
// file behind; with "all" the capable ones share the file.
func TestCSVNeedsACapableExhibit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	code, stdout, stderr := seerbench("-experiment", "lockfrac", "-csv", path, "-scale", "0.02", "-runs", "1", "-workloads", "ssca2")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 before anything is rendered", code, stdout)
	}
	var capable []string
	for _, e := range harness.Exhibits {
		if e.CSV {
			capable = append(capable, e.Name)
		}
	}
	if want := "(have " + strings.Join(capable, "|") + ")"; !strings.Contains(stderr, want) {
		t.Errorf("error %q does not name the CSV-capable exhibits %s", stderr, want)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused -csv still created %s (stat err %v)", path, err)
	}

	code, _, stderr = seerbench("-experiment", "all", "-csv", path, "-scale", "0.02", "-runs", "1", "-workloads", "ssca2")
	if code != 0 {
		t.Fatalf("all -csv: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"fig3", "table3", "fig4", "fig5", "timeline"} {
		if !strings.Contains(string(data), "\n"+tag+",") {
			t.Errorf("all -csv has no %s records", tag)
		}
	}
}

// flagCallers names, for every seerbench flag, the user who needs it.
var flagCallers = map[string]string{
	"-experiment -scale -runs -seed": "results/README.md", "-workloads -parallel": "CI exhibit-regress",
	"-v": "progress of long sweeps", "-csv -allpolicies -plot": "README fig3 outputs",
	"-metrics-interval": "timeline, inference, adversarial", "-topology": "README wide shapes",
	"-cpuprofile -memprofile": "README hot-path work",
}

// TestFlagTable: the flag set and flagCallers name the same flags.
func TestFlagTable(t *testing.T) {
	_, _, usage := seerbench("-h")
	have := strings.Fields(strings.Join(regexp.MustCompile(`(?m)^  -\S+`).FindAllString(usage, -1), " "))
	want := strings.Fields(strings.Join(slices.Collect(maps.Keys(flagCallers)), " "))
	if slices.Sort(want); !slices.Equal(have, want) {
		t.Errorf("flags %v, flagCallers %v: every flag needs one caller", have, want)
	}
}
