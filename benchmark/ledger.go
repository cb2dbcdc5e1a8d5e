package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"
)

// workloadResult is one workload's row group in the ledger.
type workloadResult struct {
	Name      string   `json:"name"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"` // one operation = one cell of one rep
	Failed    int      `json:"failed"`
	Digest    string   `json:"sim_digest"`
	Errors    []string `json:"errors,omitempty"`
	// Metrics are the end-to-end metrics, from the untraced reps.
	Metrics metricSet `json:"metrics"`
	// Layer are the workload's per-layer metrics, from the traced rep.
	Layer metricSet `json:"per_layer,omitempty"`
	// Prof are the traced rep's prof.* CPU-profile shares: optional
	// evidence, never compared, absent when `go tool pprof` cannot run.
	Prof metricSet `json:"prof,omitempty"`
}

// ledger is the machine-readable result of one benchmark command.
type ledger struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Host      hostInfo         `json:"host"`
	CalibMS   summary          `json:"host.calib_ms"`
	Workloads []workloadResult `json:"workloads"`
	// Layers are the layer drivers of the traced run; they do not depend
	// on the workload.
	Layers metricSet `json:"layers,omitempty"`
	Notes  []string  `json:"notes,omitempty"`
}

func (l *ledger) ok() bool {
	for _, w := range l.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// measure runs the selected workloads: untraced reps interleaved round
// robin across workloads (a host noise burst lands on one rep of each,
// not on every rep of one), then — when tracing — one traced rep per
// workload, the layer drivers and the profile shares.
func measure(ctx context.Context, opt options) (*ledger, error) {
	led := &ledger{Schema: 1, Seed: opt.seed, Host: readHostInfo()}
	reps := make([][]repResult, len(opt.workloads))
	measured := make([]float64, len(opt.workloads))
	for round := 0; ; round++ {
		enough := round >= opt.reps
		for _, s := range measured {
			enough = enough && s >= opt.seconds
		}
		if enough {
			break
		}
		for i, w := range opt.workloads {
			rep, err := spawnRep(ctx, w, opt.seed, false, "")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "rep %d %-10s wall %.3fs\n", round+1, w.Name, rep.WallS)
			reps[i] = append(reps[i], rep)
			measured[i] += rep.WallS
		}
	}

	var calib []float64
	for i, w := range opt.workloads {
		res := workloadResult{Name: w.Name, Correct: true, Metrics: endToEndMetrics(reps[i]), Digest: reps[i][0].Digest}
		for _, r := range reps[i] {
			calib = append(calib, r.CalibMS)
			res.absorb(r)
		}
		led.Workloads = append(led.Workloads, res)
	}

	if opt.tracePath != "" {
		tr := &tracer{}
		start := time.Now()
		root := tr.open("bench", -1, start)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		for i, w := range opt.workloads {
			prof := filepath.Join(outDir, w.Name+".cpu.pprof")
			rep, err := spawnRep(ctx, w, opt.seed, true, prof)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "traced %-10s wall %.3fs\n", w.Name, rep.WallS)
			tr.adopt(rep.Spans, root)
			res := &led.Workloads[i]
			res.absorb(rep)
			res.Layer = layerMetrics(rep, res.Metrics["wall_s"].Value)
			calib = append(calib, rep.CalibMS)
			var note string
			res.Prof, note = profileShares(ctx, prof)
			if note != "" && len(led.Notes) == 0 {
				led.Notes = append(led.Notes, note)
			}
		}
		led.Layers = runLayerDrivers(tr, root)
		tr.close(root, time.Since(start))
		if err := tr.writeChrome(opt.tracePath); err != nil {
			return nil, err
		}
	}
	led.CalibMS = summarize("ms", calib)

	for i := range led.Workloads {
		led.Workloads[i].checkGolden(opt)
	}
	return led, nil
}

// absorb folds one rep's operations into the result and checks that it
// simulated exactly what the first rep did.
func (res *workloadResult) absorb(r repResult) {
	res.Attempted += r.Cells
	res.Failed += r.Failed
	res.Errors = append(res.Errors, r.Errors...)
	if r.Failed > 0 {
		res.Correct = false
	}
	if r.Digest != res.Digest {
		res.Correct = false
		res.Errors = append(res.Errors, fmt.Sprintf("sim_digest differs between reps: %s vs %s", r.Digest, res.Digest))
	}
}

// checkGolden compares the digest with the pinned one at seed 1, or
// re-pins it under -update.
func (res *workloadResult) checkGolden(opt options) {
	if opt.seed != 1 || !res.Correct {
		return
	}
	if opt.update {
		path := filepath.Join(goldenDir, res.Name+".seed1.digest")
		if err := writeFile(path, []byte(res.Digest+"\n")); err != nil {
			res.Correct = false
			res.Errors = append(res.Errors, err.Error())
		}
		return
	}
	want, ok := goldenDigest(res.Name)
	if !ok {
		res.Correct = false
		res.Errors = append(res.Errors, "no golden digest; run with -seed 1 -update")
	} else if want != res.Digest {
		res.Correct = false
		res.Errors = append(res.Errors, fmt.Sprintf("sim_digest %s differs from golden %s: the simulated results changed", res.Digest, want))
	}
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return fmt.Errorf("encode ledger: %w", err)
	}
	return writeFile(path, append(data, '\n'))
}

func loadLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	led := new(ledger)
	if err := json.Unmarshal(data, led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return led, nil
}

// contractValue is a metric as the contract line carries it.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the one-line JSON result of a single-workload
// run: the end-to-end metrics, or with traced the per-layer ones
// (the workload's own plus the layer drivers).
func (res workloadResult) contractLine(traced bool, layers metricSet, calib summary) string {
	metrics := map[string]contractValue{}
	put := func(set metricSet) {
		for name, s := range set {
			metrics[name] = contractValue{s.Value, s.Unit}
		}
	}
	if traced {
		put(res.Layer)
		put(layers)
		put(metricSet{"host.calib_ms": calib})
	} else {
		put(res.Metrics)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always encode
	}
	return string(line)
}

// print renders every metric by name with its unit.
func (l *ledger) print(w io.Writer) {
	h := l.Host
	fmt.Fprintf(w, "host: %s, GOMAXPROCS=%d, nproc=%d, %s\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel)
	fmt.Fprintf(w, "host.calib_ms: median %.3f ms (min %.3f, max %.3f, n=%d) — informational\n",
		l.CalibMS.Value, l.CalibMS.Min, l.CalibMS.Max, l.CalibMS.N)
	fmt.Fprintf(w, "seed %d\n", l.Seed)
	for _, res := range l.Workloads {
		status := "ok"
		if !res.Correct {
			status = "FAILED"
		}
		fmt.Fprintf(w, "\n== %s: %s, %d/%d operations failed, sim_digest %.16s…\n",
			res.Name, status, res.Failed, res.Attempted, res.Digest)
		for _, e := range res.Errors {
			fmt.Fprintf(w, "   error: %s\n", e)
		}
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tmedian\tunit\tclock\tbetter\tbound\tmin\tq1\tq3\tmax\tn")
		for _, d := range endToEnd {
			s := res.Metrics[d.Name]
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%.0f%%\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n",
				d.Name, s.Value, d.Unit, d.Clock, d.Better, 100*d.Bound, s.Min, s.Q1, s.Q3, s.Max, s.N)
		}
		tw.Flush()
		if res.Layer != nil {
			tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
			fmt.Fprintln(tw, "per-layer (traced rep)\tvalue\tunit\tclock")
			for _, d := range perWorkloadLayer {
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.Name, res.Layer[d.Name].Value, d.Unit, d.Clock)
			}
			for _, b := range profBucketNames {
				if s, ok := res.Prof["prof."+b+"_pct"]; ok {
					fmt.Fprintf(tw, "prof.%s_pct\t%.4g\t%%\thost\n", b, s.Value)
				}
			}
			tw.Flush()
		}
	}
	if l.Layers != nil {
		fmt.Fprintf(w, "\n== layer drivers (host clock; calls into exported functions)\n")
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit\tops")
		for _, n := range layerMetricNames() {
			s := l.Layers[n]
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", n, s.Value, s.Unit, s.Ops)
		}
		tw.Flush()
	}
	for _, n := range l.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
