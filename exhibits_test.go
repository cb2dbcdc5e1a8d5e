package seer_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"seer/internal/harness"
)

// TestExhibitGoldens regenerates every seerbench exhibit at a reduced
// scale and compares the rendered text byte-for-byte against checked-in
// goldens. It is the regression net for "perf changes must not move the
// science": any scheduling, inference or rendering change that alters an
// exhibit fails here with a diffable artifact. Regenerate after an
// intentional change with:
//
//	go test -run TestExhibitGoldens -update .
func TestExhibitGoldens(t *testing.T) {
	// Parallel fan-out is byte-identical to sequential (see RunGrid), so
	// using every CPU here does not weaken the byte-for-byte guarantee.
	opt := harness.Options{Scale: 0.05, Runs: 1, Seed: 1, Parallel: -1}

	for _, ex := range harness.Exhibits {
		t.Run(ex.Name, func(t *testing.T) {
			out, err := ex.Run(opt, harness.Args{})
			if err != nil {
				t.Fatalf("%s: %v", ex.Name, err)
			}
			if _, ok := out.(harness.CSVWriter); ex.CSV && !ok {
				t.Errorf("%s is registered with a CSV form but its output has none", ex.Name)
			}
			var buf bytes.Buffer
			out.Render(&buf)
			got := buf.String()
			path := filepath.Join("testdata", "exhibits", ex.Name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				dump := filepath.Join(t.TempDir(), ex.Name+".got")
				os.WriteFile(dump, []byte(got), 0o644)
				t.Errorf("%s output differs from %s (got written to %s)", ex.Name, path, dump)
			}
		})
	}
}

// TestExhibitRegistryMatchesGoldens: every registered exhibit has a
// golden file and every golden file has a registry entry, so neither an
// unpinned exhibit nor a stale golden can sit in the tree. Runs without
// simulating anything.
func TestExhibitRegistryMatchesGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "exhibits", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var goldens []string
	for _, f := range files {
		goldens = append(goldens, strings.TrimSuffix(filepath.Base(f), ".golden"))
	}
	names := harness.Names()
	sort.Strings(names)
	if !reflect.DeepEqual(names, goldens) {
		t.Fatalf("registry names %v\ndo not match testdata/exhibits/*.golden %v", names, goldens)
	}
}
