package harness

import (
	"fmt"
	"io"
	"strings"
)

// Args are the per-run inputs of an exhibit beyond the sweep Options;
// each exhibit reads the ones that apply to it.
type Args struct {
	// Workloads replaces the exhibit's default workload axis when non-nil.
	Workloads []string
	// Interval is the telemetry snapshot period in cycles of the timeline,
	// inference and adversarial exhibits (0 = each one's default).
	Interval uint64
	// AllPolicies adds the ATS and Oracle baselines to fig3.
	AllPolicies bool
	// Progress, when non-nil, receives one line per finished grid cell.
	Progress io.Writer
}

// Output is a finished exhibit. Those with a machine-readable form also
// implement CSVWriter.
type Output interface{ Render(w io.Writer) }

// CSVWriter is the optional machine-readable form of an Output: records
// led by an "exhibit" field, so several exhibits can share one file.
type CSVWriter interface{ WriteCSV(w io.Writer) error }

// Exhibit is one registered experiment.
type Exhibit struct {
	Name  string
	Paper bool // one of the paper's own exhibits: part of "all"
	CSV   bool // its Output implements CSVWriter
	Run   func(opt Options, a Args) (Output, error)
}

// Exhibits is the one list of experiments, in presentation order:
// seerbench's -experiment values, its "all" subset, its help text and the
// golden-file sweep are all read off it. Adding an exhibit is one entry
// here plus testdata/exhibits/<name>.golden.
var Exhibits = []Exhibit{
	{Name: "fig3", Paper: true, CSV: true, Run: fig3},
	{Name: "table3", Paper: true, CSV: true, Run: table3},
	{Name: "fig4", Paper: true, CSV: true, Run: fig4},
	{Name: "fig5", Paper: true, CSV: true, Run: fig5},
	{Name: "lockfrac", Paper: true, Run: lockFrac},
	{Name: "ext", Paper: true, Run: extensions},
	{Name: "attempts", Paper: true, Run: attempts},
	{Name: "timeline", Paper: true, CSV: true, Run: timelines},
	{Name: "inference", Run: inference},
	{Name: "contended", Run: contended},
	{Name: "scaling", Run: scaling},
	{Name: "adversarial", Run: adversarial},
	{Name: "phased", Run: phased},
	{Name: "fullsuite", CSV: true, Run: fullSuite},
}

// Names lists the registered exhibit names in registry order.
func Names() []string {
	names := make([]string, len(Exhibits))
	for i, e := range Exhibits {
		names[i] = e.Name
	}
	return names
}

// Select resolves an -experiment value: a registered name, or "all" for
// the paper's exhibits in registry order.
func Select(name string) ([]Exhibit, error) {
	var out []Exhibit
	for _, e := range Exhibits {
		if e.Name == name || (name == "all" && e.Paper) {
			out = append(out, e)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("unknown experiment %q (have %s|all)", name, strings.Join(Names(), "|"))
	}
	return out, nil
}
