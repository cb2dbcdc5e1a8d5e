// Command seerbench regenerates the tables and figures of the paper's
// evaluation on the simulated machine.
//
// Usage:
//
//	seerbench -experiment fig3|table3|fig4|fig5|lockfrac|ext|attempts|contended|scaling|inference|adversarial|phased|fullsuite|all [flags]
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
//	-workloads s comma-separated subset (default: the full STAMP suite)
//	-full-suite  widen the default workload set with bayes and labyrinth
//	-parallel n  run n grid cells concurrently (-1 = one per CPU; output
//	             is byte-identical to a sequential run at any width)
//	-topology s  run every cell on this machine shape instead of the
//	             paper's 1s4c2t testbed (spec form <sockets>s<cores>c<threads>t,
//	             e.g. 2s8c2t; cells needing more threads than the shape
//	             offers fail). scaling ignores it: it sweeps its own shapes.
//	-registry-shards n  conflict-registry shard count per cell (0 = auto
//	             by machine shape; results identical at any count)
//	-quantum k   speculative-quantum depth per cell (0 = library default,
//	             -1 = off; results identical at any setting)
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
	"strings"

	"seer"
	"seer/internal/harness"
)

// experimentNames lists every runnable -experiment value, in the order
// the doc comment presents them; "unknown experiment" errors and the
// -experiment flag help enumerate it so typos are self-correcting.
var experimentNames = []string{
	"fig3", "table3", "fig4", "fig5", "lockfrac", "ext", "attempts",
	"timeline", "inference", "contended", "scaling", "adversarial",
	"phased", "fullsuite", "all",
}

func main() {
	var (
		experiment = flag.String("experiment", "all", strings.Join(experimentNames, "|"))
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		runs       = flag.Int("runs", 3, "repetitions per measurement")
		seed       = flag.Int64("seed", 1, "base PRNG seed")
		workloads  = flag.String("workloads", "", "comma-separated workload subset")
		verbose    = flag.Bool("v", false, "stream per-cell progress to stderr")
		csvPath    = flag.String("csv", "", "also write machine-readable results to this CSV file")
		allPol     = flag.Bool("allpolicies", false, "fig3: include the ATS and Oracle extension baselines")
		plotOut    = flag.Bool("plot", false, "fig3: render terminal line charts instead of tables")
		interval   = flag.Uint64("metrics-interval", 0, "timeline: snapshot period in cycles (0 = default)")
		parallel   = flag.Int("parallel", 0, "concurrent grid cells (0/1 = sequential, -1 = one per CPU)")
		topoSpec   = flag.String("topology", "", "machine shape for every cell, e.g. 2s8c2t (default: the paper's 1s4c2t testbed)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		fullSuite  = flag.Bool("full-suite", false, "widen the default workload set with bayes and labyrinth")
		regShards  = flag.Int("registry-shards", 0, "conflict-registry shard count per cell (0 = auto by machine shape; results identical at any count)")
		quantum    = flag.Int("quantum", 0, "speculative-quantum budget per cell (0 = library default, -1 = off, K > 0 = up to K pure ticks; results identical at any setting)")
	)
	flag.Parse()

	// fail stops an in-flight CPU profile (StopCPUProfile is a no-op when
	// none is running) so partial profiles are flushed, then exits.
	fail := func(err error) {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "seerbench: %v\n", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}

	opt := harness.Options{Scale: *scale, Runs: *runs, Seed: *seed, Parallel: *parallel,
		FullSuite: *fullSuite, RegistryShards: *regShards, Quantum: *quantum}
	if *topoSpec != "" {
		topo, err := seer.ParseTopology(*topoSpec)
		if err != nil {
			fail(err)
		}
		opt.Topology = topo
	}
	var wls []string
	if *workloads != "" {
		wls = strings.Split(*workloads, ",")
	}
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	var csvOut *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		csvOut = f
	}
	maybeCSV := func(write func(io.Writer) error) error {
		if csvOut == nil {
			return nil
		}
		return write(csvOut)
	}

	run := func(name string) error {
		switch name {
		case "fig3":
			pols := harness.Fig3Policies
			if *allPol {
				pols = harness.AllPolicies
			}
			d, err := harness.Fig3With(opt, wls, pols, progress)
			if err != nil {
				return err
			}
			if *plotOut {
				d.Plot(os.Stdout)
			} else {
				d.Render(os.Stdout)
			}
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		case "table3":
			d, err := harness.Table3(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		case "fig4":
			d, err := harness.Fig4(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		case "fig5":
			d, err := harness.Fig5(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		case "contended":
			d, err := harness.Contended(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "scaling":
			d, err := harness.Scaling(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "lockfrac":
			d, err := harness.LockFrac(opt, wls)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "ext":
			d, err := harness.Extensions(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "attempts":
			d, err := harness.Attempts(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "timeline":
			d, err := harness.Timelines(opt, wls, nil, *interval, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		case "inference":
			d, err := harness.Inference(opt, wls, *interval, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "adversarial":
			d, err := harness.Adversarial(opt, wls, *interval, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "phased":
			d, err := harness.Phased(opt, wls, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
		case "fullsuite":
			// Figure 3 restricted to the opt-in workloads, over the full
			// policy set — the bayes/labyrinth companion to fig3.
			d, err := harness.Fig3With(opt, []string{"bayes", "labyrinth"}, harness.AllPolicies, progress)
			if err != nil {
				return err
			}
			d.Render(os.Stdout)
			if err := maybeCSV(d.WriteCSV); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(experimentNames, "|"))
		}
		return nil
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"fig3", "table3", "fig4", "fig5", "lockfrac", "ext", "attempts", "timeline"}
	}
	for _, name := range names {
		if err := run(name); err != nil {
			fail(err)
		}
	}
	pprof.StopCPUProfile()
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // report live heap, not transient garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}
