package harness

import (
	"fmt"
	"io"
	"strconv"

	"seer"
	"seer/internal/stamp"
)

// Options configures an experiment sweep.
type Options struct {
	Scale float64
	Runs  int
	Seed  int64
	// Parallel is the worker-pool width used to fan independent grid
	// cells across real CPUs: 0 or 1 runs sequentially, N > 1 uses N
	// workers, negative uses one worker per available CPU. Results and
	// rendered output are bit-identical at any width (see RunGrid).
	Parallel int
	// Topology, when non-zero, replaces the default 8-thread testbed for
	// every grid cell that does not pin its own shape (the seerbench
	// -topology flag). Cells whose thread count exceeds the shape fail
	// with a config error rather than silently resizing.
	Topology seer.Topology
	// FullSuite widens the default workload set from stamp.Suite to
	// stamp.FullSuite (adds bayes and labyrinth) in every experiment
	// that was not given an explicit list (the seerbench -full-suite
	// flag). Explicit workload arguments are unaffected.
	FullSuite bool
	// Quantum sets the speculative-quantum budget for every grid cell
	// that does not pin its own (the seerbench -quantum flag; 0 = library
	// default, -1 = speculation off, K > 0 = quanta of up to K pure
	// ticks). Pure engine mechanics: results are bit-identical at any
	// setting.
	Quantum int
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	return o
}

// Suite returns the Figure 3 workload list.
func Suite() []string { return append([]string{}, stamp.Suite...) }

// rows resolves an exhibit's workload axis: the explicit list when one
// was given, else the suite the options select plus the exhibit's extras.
func (o Options) rows(explicit []string, extra ...string) []string {
	if explicit != nil {
		return explicit
	}
	if o.FullSuite {
		return append(append([]string{}, stamp.FullSuite...), extra...)
	}
	return append(Suite(), extra...)
}

// point is one labelled position on a grid axis: the label results are
// looked up by, and what the position sets on a cell's Spec.
type point struct {
	label string
	set   func(*Spec)
}

func labels(pts []point) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = p.label
	}
	return out
}

// policyPoint is a stock policy as a column.
func policyPoint(pol seer.PolicyKind) point {
	return point{string(pol), func(sp *Spec) { sp.Policy = pol }}
}

// policyPoints is a column axis of stock policies.
func policyPoints(pols []seer.PolicyKind) []point {
	pts := make([]point, len(pols))
	for i, pol := range pols {
		pts[i] = policyPoint(pol)
	}
	return pts
}

// variantPoints is a column axis of Seer option sets.
func variantPoints(vs []Variant) []point {
	pts := make([]point, len(vs))
	for i, v := range vs {
		pts[i] = point{v.Name, func(sp *Spec) { sp.Policy, sp.SeerOpts = seer.PolicySeer, &v.Opts }}
	}
	return pts
}

// threadPoints is an x axis of worker counts on the default testbed.
func threadPoints(counts []int) []point {
	pts := make([]point, len(counts))
	for i, n := range counts {
		pts[i] = point{strconv.Itoa(n), func(sp *Spec) { sp.Threads = n }}
	}
	return pts
}

// fullMachine is the one-point x axis of the exhibits that only look at
// the paper's full 8-thread testbed.
var fullMachine = threadPoints([]int{MachineHWThreads})

type cellKey struct{ row, col, x string }

// grid is a batch of labelled cells: an exhibit adds every cell it needs
// under a (row, col, x) label, runs the batch once through RunGrid, and
// reads results back by label, so its reduction is a pure loop that does
// not depend on the order cells ran or were added in.
type grid struct {
	opt     Options
	keys    []cellKey
	specs   []Spec
	index   map[cellKey]int
	results []Result
}

func newGrid(opt Options) *grid {
	return &grid{opt: opt.normalized(), index: map[cellKey]int{}}
}

// add registers the cell (row, col.label, x.label): workload row at the
// sweep's scale, runs and seed, shaped by x and then by col. Adding a
// label twice is a no-op, so a reference column that is also a measured
// one is not run twice.
func (g *grid) add(row string, col, x point) {
	k := cellKey{row, col.label, x.label}
	if _, dup := g.index[k]; dup {
		return
	}
	sp := Spec{Workload: row, Scale: g.opt.Scale, Runs: g.opt.Runs, Seed: g.opt.Seed}
	for _, p := range []point{x, col} {
		if p.set != nil {
			p.set(&sp)
		}
	}
	g.index[k] = len(g.specs)
	g.keys = append(g.keys, k)
	g.specs = append(g.specs, sp)
}

// cube adds the full (rows × cols × xs) cross product.
func (g *grid) cube(rows []string, cols, xs []point) {
	for _, row := range rows {
		for _, col := range cols {
			for _, x := range xs {
				g.add(row, col, x)
			}
		}
	}
}

// run executes every added cell. progress, when non-nil, receives one
// line per finished cell, in the order the cells were added.
func (g *grid) run(name string, progress io.Writer) error {
	var each func(int, Result)
	if progress != nil {
		each = func(i int, res Result) {
			k := g.keys[i]
			fmt.Fprintf(progress, "%s %-14s %-16s %-4s makespan %.0f\n", name, k.row, k.col, k.x, res.MeanMakespan)
		}
	}
	var err error
	g.results, err = RunGrid(g.opt, g.specs, each)
	return err
}

// at returns the result of a cell added earlier; asking for a label that
// was never added is a bug in the exhibit.
func (g *grid) at(row, col, x string) Result {
	i, ok := g.index[cellKey{row, col, x}]
	if !ok {
		panic(fmt.Sprintf("harness: no grid cell %s/%s/%s", row, col, x))
	}
	return g.results[i]
}

// at8 returns the full-machine cell of (row, col).
func (g *grid) at8(row, col string) Result {
	return g.at(row, col, fullMachine[0].label)
}
