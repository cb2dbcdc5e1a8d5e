// Command benchmark is the repository's performance ledger: four fixed
// workloads of simulator cells, each repetition in a fresh child process,
// reporting host speed, the simulated results and — in a traced run —
// per-layer cost measured from outside. See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./benchmark [-workload all|NAME] [-reps 5] [-seconds 0] [-seed 1]
//	                   [-trace 0|1|FILE] [-json OUT] [-update]
//	go run ./benchmark -selfcheck
//	go run ./benchmark -compare old.json new.json
//
// With one -workload the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics otherwise.
package main

import (
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
)

const (
	outDir    = "benchmark/out"
	goldenDir = "benchmark/golden"
	// minReps is the floor on repetitions per workload: below five the
	// quartiles of a timing say nothing.
	minReps = 5
)

//go:embed golden/*.digest
var goldens embed.FS

// goldenDigest returns the pinned sim_digest of a workload at seed 1.
func goldenDigest(name string) (string, bool) {
	data, err := goldens.ReadFile("golden/" + name + ".seed1.digest")
	if err != nil {
		return "", false
	}
	return strings.TrimSpace(string(data)), true
}

type options struct {
	workloadFlag string // as given: "all" or one name
	workloads    []workload
	reps         int
	seconds      float64
	seed         int64
	tracePath    string // "" = no traced run
	jsonPath     string
	update       bool
}

func main() {
	var (
		wlFlag     = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		reps       = flag.Int("reps", minReps, "repetitions per workload (at least 5), each in a fresh process")
		seconds    = flag.Float64("seconds", 0, "keep repeating until each workload has measured this many seconds (0 = -reps only)")
		seed       = flag.Int64("seed", 1, "base seed handed to every cell")
		trace      = flag.String("trace", "0", "0 = end-to-end metrics only; 1 or FILE = also a traced run with per-layer metrics, Chrome trace written to FILE")
		jsonOut    = flag.String("json", filepath.Join(outDir, "result.json"), "write the machine-readable ledger here")
		update     = flag.Bool("update", false, "with -seed 1, re-pin "+goldenDir+"/*.digest to this run's digests")
		selfcheck  = flag.Bool("selfcheck", false, "measure the full set twice, traced, and fail unless the two agree")
		compare    = flag.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
		child      = flag.Bool("child", false, "internal: run one rep in this process and print it as JSON")
		cpuprofile = flag.String("cpuprofile", "", "internal: with -child, write a CPU profile of the rep")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two ledger files: old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}

	opt := options{workloadFlag: *wlFlag, reps: max(*reps, minReps), seconds: *seconds, seed: *seed, jsonPath: *jsonOut, update: *update}
	switch *trace {
	case "", "0":
	case "1":
		opt.tracePath = filepath.Join(outDir, "trace.json")
	default:
		opt.tracePath = *trace
	}
	if *wlFlag == "all" {
		opt.workloads = workloads
	} else {
		w, ok := findWorkload(*wlFlag)
		if !ok {
			fatalf("unknown workload %q (have %s)", *wlFlag, strings.Join(workloadNames(), ", "))
		}
		opt.workloads = []workload{w}
	}

	if *child {
		if err := childMain(opt.workloads[0], opt.seed, opt.tracePath != "", *cpuprofile); err != nil {
			fatalf("%v", err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *selfcheck {
		os.Exit(runSelfcheck(ctx, opt))
	}
	led, err := measure(ctx, opt)
	if err != nil {
		fatalf("%v", err)
	}
	led.print(os.Stdout)
	if err := led.write(opt.jsonPath); err != nil {
		fatalf("%v", err)
	}
	if len(led.Workloads) == 1 {
		// The contract line: last on standard output.
		fmt.Println(led.Workloads[0].contractLine(opt.tracePath != "", led.Layers, led.CalibMS))
	}
	if !led.ok() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// childMain is one rep as a user's seerbench invocation would be: a
// fresh process that runs the cells and exits. The calibration kernel
// runs first, outside every measured interval.
func childMain(w workload, seed int64, traced bool, cpuprofile string) error {
	calib := calibrate()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	rep := runRep(w, seed, tr)
	pprof.StopCPUProfile()
	rep.CalibMS = calib
	rep.PeakRSSKB = peakRSSKB()
	if tr != nil {
		rep.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawnRep runs one rep of w in a child process and waits for it.
func spawnRep(ctx context.Context, w workload, seed int64, traced bool, cpuprofile string) (repResult, error) {
	var rep repResult
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cpuprofile != "" {
		args = append(args, "-cpuprofile", cpuprofile)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("rep of %s: %w", w.Name, err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("rep of %s: decode: %w", w.Name, err)
	}
	return rep, nil
}
