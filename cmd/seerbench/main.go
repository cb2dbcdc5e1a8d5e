// Command seerbench regenerates the tables and figures of the paper's
// evaluation on the simulated machine.
//
// Usage:
//
//	seerbench -experiment fig3|table3|fig4|fig5|lockfrac|ext|attempts|timeline|inference|contended|scaling|adversarial|phased|fullsuite|all [flags]
//
// The contended experiment is a stress view of the SGL park/wake path
// (HLE at 8 threads), the scaling experiment sweeps machine shapes from
// the paper's 8-thread socket up to a 4-socket, 128-thread box, the
// inference experiment scores Seer's learned locking scheme against the
// simulator's ground-truth conflict matrix (precision/recall over
// virtual time), the adversarial experiment runs synthetic worst-case
// conflict graphs (ring, star, bipartite, clique, phase-shift) under
// every contention manager, the phased experiment compares the phased
// runtime (PhTM, with its software commit path) against RTM/SCM/Seer on
// the suite plus a capacity-bound microbenchmark, and fullsuite runs
// Figure 3 over the opt-in bayes/labyrinth workloads; none is part of
// "all", which regenerates only the paper's exhibits.
//
// seerbench prints exhibits; it does not measure the simulator's own speed.
// That is the job of the performance ledger (go run ./benchmark, see
// benchmark/README.md).
//
// Flags:
//
//	-scale f     workload scale factor (default 1.0; smaller is faster)
//	-runs n      repetitions per cell (default 3)
//	-seed n      base seed (default 1)
//	-workloads s comma-separated workload list replacing the default STAMP
//	             suite (e.g. bayes,labyrinth for the two the paper excludes)
//	-parallel n  run n grid cells concurrently (-1 = one per CPU; output
//	             is byte-identical to a sequential run at any width)
//	-topology s  run every cell on this machine shape instead of the
//	             paper's 1s4c2t testbed (spec form <sockets>s<cores>c<threads>t,
//	             e.g. 2s8c2t; cells needing more threads than the shape
//	             offers fail). scaling ignores it: it sweeps its own shapes.
//	-csv f       also write the selected exhibits' machine-readable form to f
//	             (an error if none of them has one)
//	-cpuprofile f write a pprof CPU profile of the run to f
//	-memprofile f write a pprof heap profile (taken at exit, after a GC) to f
//	-v           stream per-cell progress to stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"seer"
	"seer/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the exhibits to stdout
// and diagnostics to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(harness.Names(), "|")+"|all")
		scale      = fs.Float64("scale", 1.0, "workload scale factor")
		runs       = fs.Int("runs", 3, "repetitions per measurement")
		seed       = fs.Int64("seed", 1, "base PRNG seed")
		workloads  = fs.String("workloads", "", "comma-separated workload subset")
		verbose    = fs.Bool("v", false, "stream per-cell progress to stderr")
		csvPath    = fs.String("csv", "", "also write machine-readable results to this CSV file")
		allPol     = fs.Bool("allpolicies", false, "fig3: include the ATS and Oracle extension baselines")
		plotOut    = fs.Bool("plot", false, "fig3: render terminal line charts instead of tables")
		interval   = fs.Uint64("metrics-interval", 0, "timeline, inference, adversarial: snapshot period in cycles (0 = default)")
		parallel   = fs.Int("parallel", 0, "concurrent grid cells (0/1 = sequential, -1 = one per CPU)")
		topoSpec   = fs.String("topology", "", "machine shape for every cell, e.g. 2s8c2t (default: the paper's 1s4c2t testbed)")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// fail stops an in-flight CPU profile (StopCPUProfile is a no-op when
	// none is running) so partial profiles are flushed.
	fail := func(err error) int {
		pprof.StopCPUProfile()
		fmt.Fprintf(stderr, "seerbench: %v\n", err)
		return 1
	}

	selected, err := harness.Select(*experiment)
	if err != nil {
		return fail(err)
	}
	hasCSV := func(e harness.Exhibit) bool { return e.CSV }
	if *csvPath != "" && !slices.ContainsFunc(selected, hasCSV) {
		var have []string
		for _, e := range harness.Exhibits {
			if e.CSV {
				have = append(have, e.Name)
			}
		}
		return fail(fmt.Errorf("-csv: %s has no CSV form (have %s)", *experiment, strings.Join(have, "|")))
	}
	opt := harness.Options{Scale: *scale, Runs: *runs, Seed: *seed, Parallel: *parallel}
	if *topoSpec != "" {
		if opt.Topology, err = seer.ParseTopology(*topoSpec); err != nil {
			return fail(err)
		}
	}
	a := harness.Args{Interval: *interval, AllPolicies: *allPol, Plot: *plotOut}
	if *workloads != "" {
		a.Workloads = strings.Split(*workloads, ",")
	}
	if *verbose {
		a.Progress = stderr
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
	}
	var csvOut *os.File
	if *csvPath != "" {
		if csvOut, err = os.Create(*csvPath); err != nil {
			return fail(err)
		}
		defer csvOut.Close() // error paths; the success path checks Close below
	}
	for _, e := range selected {
		out, err := e.Run(opt, a)
		if err != nil {
			return fail(err)
		}
		out.Render(stdout)
		if csvOut != nil && e.CSV {
			if err := out.(harness.CSVWriter).WriteCSV(csvOut); err != nil {
				return fail(err)
			}
		}
	}
	if csvOut != nil {
		if err := csvOut.Close(); err != nil {
			return fail(err)
		}
	}
	pprof.StopCPUProfile()
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC() // report live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
		f.Close()
	}
	return 0
}
