package seer_test

// The benchmarks in this file regenerate the paper's tables and figures
// through the testing.B interface, one benchmark family per exhibit:
//
//	BenchmarkFig3/<workload>/<policy>/<threads>t  — Figure 3 speedup points
//	BenchmarkTable3/<policy>/<threads>t           — Table 3 mode breakdowns
//	BenchmarkFig4/<workload>                      — Figure 4 profiling overhead
//	BenchmarkFig5/<variant>                       — Figure 5 cumulative ablation
//	BenchmarkLockFrac                             — §5.2 lock-granularity stat
//
// Each benchmark reports the simulated metrics through b.ReportMetric:
// speedup (vs the sequential uninstrumented baseline), SGL percentage and
// abort rate. Wall-clock ns/op measures the simulator, not the modeled
// machine, and is meaningful only as "how long the experiment takes".
//
// The full-resolution experiment driver is cmd/seerbench; these benches
// run at a reduced scale so `go test -bench=.` finishes in minutes.

import (
	"fmt"
	"testing"

	"seer"
	"seer/internal/adversary"
	"seer/internal/bench"
	"seer/internal/harness"
)

// benchScale keeps `go test -bench=.` fast; cmd/seerbench uses 1.0.
const benchScale = 0.25

// baselines caches sequential makespans per workload.
var baselines = map[string]float64{}

func baseline(b *testing.B, workload string) float64 {
	if v, ok := baselines[workload]; ok {
		return v
	}
	v := runCell(b, harness.Spec{Workload: workload, Scale: benchScale, Policy: seer.PolicySeq, Threads: 1, Runs: 1, Seed: 1}).MeanMakespan
	baselines[workload] = v
	return v
}

func runCell(b *testing.B, spec harness.Spec) harness.Result {
	b.Helper()
	res, err := harness.RunOne(spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig3 regenerates the Figure 3 grid: speedup over sequential
// for each benchmark × policy × thread count.
func BenchmarkFig3(b *testing.B) {
	threads := []int{1, 2, 4, 6, 8}
	for _, wl := range harness.Suite() {
		for _, pol := range harness.Fig3Policies {
			for _, th := range threads {
				name := fmt.Sprintf("%s/%s/%dt", wl, pol, th)
				b.Run(name, func(b *testing.B) {
					base := baseline(b, wl)
					var res harness.Result
					for i := 0; i < b.N; i++ {
						res = runCell(b, harness.Spec{
							Workload: wl, Scale: benchScale, Policy: pol,
							Threads: th, Runs: 1, Seed: int64(i + 1),
						})
					}
					b.ReportMetric(harness.Speedup(base, res), "speedup")
					b.ReportMetric(res.MeanModePct[seer.ModeSGL], "sgl%")
				})
			}
		}
	}
}

// BenchmarkTable3 regenerates the Table 3 rows: the commit-mode breakdown
// averaged across the STAMP suite.
func BenchmarkTable3(b *testing.B) {
	for _, pol := range harness.Fig3Policies {
		for _, th := range harness.Table3Threads {
			b.Run(fmt.Sprintf("%s/%dt", pol, th), func(b *testing.B) {
				var sgl, htmOnly, locked float64
				for i := 0; i < b.N; i++ {
					sgl, htmOnly, locked = 0, 0, 0
					for _, wl := range harness.Suite() {
						res := runCell(b, harness.Spec{
							Workload: wl, Scale: benchScale, Policy: pol,
							Threads: th, Runs: 1, Seed: int64(i + 1),
						})
						sgl += res.MeanModePct[seer.ModeSGL]
						htmOnly += res.MeanModePct[seer.ModeHTM]
						locked += res.MeanModePct[seer.ModeHTMAux] +
							res.MeanModePct[seer.ModeHTMTx] +
							res.MeanModePct[seer.ModeHTMCore] +
							res.MeanModePct[seer.ModeHTMTxCore]
					}
				}
				n := float64(len(harness.Suite()))
				b.ReportMetric(htmOnly/n, "htm%")
				b.ReportMetric(locked/n, "locked%")
				b.ReportMetric(sgl/n, "sgl%")
			})
		}
	}
}

// BenchmarkFig4 regenerates the Figure 4 overhead study: profile-only
// Seer relative to RTM (1.0 = free; the paper reports ≥0.92 everywhere).
func BenchmarkFig4(b *testing.B) {
	profOpts := seer.DefaultConfig().Seer
	profOpts.TxLocks = false
	profOpts.CoreLocks = false
	profOpts.HTMLockAcq = false
	workloads := append(harness.Suite(), "hashmap")
	for _, wl := range workloads {
		b.Run(wl, func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				rtm := runCell(b, harness.Spec{
					Workload: wl, Scale: benchScale, Policy: seer.PolicyRTM,
					Threads: 8, Runs: 1, Seed: int64(i + 1),
				})
				opts := profOpts
				prof := runCell(b, harness.Spec{
					Workload: wl, Scale: benchScale, Policy: seer.PolicySeer,
					SeerOpts: &opts, Threads: 8, Runs: 1, Seed: int64(i + 1),
				})
				rel = rtm.MeanMakespan / prof.MeanMakespan
			}
			b.ReportMetric(rel, "rel_speed")
		})
	}
}

// BenchmarkFig5 regenerates the Figure 5 ablation: each cumulative Seer
// variant's geometric-mean speedup over the profile-only baseline at 8
// threads.
func BenchmarkFig5(b *testing.B) {
	variants := harness.SeerVariants()
	for _, v := range variants {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			var gm float64
			for i := 0; i < b.N; i++ {
				var speedups []float64
				for _, wl := range harness.Suite() {
					baseOpts := variants[0].Opts
					base := runCell(b, harness.Spec{
						Workload: wl, Scale: benchScale, Policy: seer.PolicySeer,
						SeerOpts: &baseOpts, Threads: 8, Runs: 1, Seed: int64(i + 1),
					})
					opts := v.Opts
					res := runCell(b, harness.Spec{
						Workload: wl, Scale: benchScale, Policy: seer.PolicySeer,
						SeerOpts: &opts, Threads: 8, Runs: 1, Seed: int64(i + 1),
					})
					speedups = append(speedups, base.MeanMakespan/res.MeanMakespan)
				}
				gm = bench.GeoMean(speedups)
			}
			b.ReportMetric(gm, "vs_profile")
		})
	}
}

// BenchmarkLockFrac reproduces the §5.2 statistic: the median fraction of
// transaction locks acquired when Seer takes any, at 8 threads.
func BenchmarkLockFrac(b *testing.B) {
	var medians []float64
	for i := 0; i < b.N; i++ {
		medians = medians[:0]
		for _, wl := range harness.Suite() {
			res := runCell(b, harness.Spec{
				Workload: wl, Scale: benchScale, Policy: seer.PolicySeer,
				Threads: 8, Runs: 1, Seed: int64(i + 1),
			})
			rep := res.Reports[0]
			if rep.Seer != nil && rep.Seer.LockAcqEvents > 0 {
				medians = append(medians, rep.Seer.LockFracMedian)
			}
		}
	}
	var sum float64
	for _, m := range medians {
		sum += m
	}
	if len(medians) > 0 {
		b.ReportMetric(sum/float64(len(medians)), "median_lock_frac")
	}
}

// BenchmarkContendedSGL measures the simulator on a maximally contended
// cell: HLE at 8 threads funnels nearly every transaction through the
// single global lock, so run time is dominated by the spinlock park/wake
// path. Reports the parked share of lock-wait virtual time.
func BenchmarkContendedSGL(b *testing.B) {
	var lockWait, parkSkipped uint64
	for i := 0; i < b.N; i++ {
		res := runCell(b, harness.Spec{
			Workload: "intruder", Scale: benchScale, Policy: seer.PolicyHLE,
			Threads: 8, Runs: 1, Seed: int64(i + 1),
			MetricsInterval: 1 << 16,
		})
		lockWait, parkSkipped = 0, 0
		for _, snap := range res.Reports[0].Timeline {
			lockWait += snap.LockWait
			parkSkipped += snap.ParkSkipped
		}
	}
	if lockWait > 0 {
		b.ReportMetric(100*float64(parkSkipped)/float64(lockWait), "park_skip_%")
	}
}

// BenchmarkEngineTick measures the simulator's own speed: virtual-time
// scheduling points per second on this host.
func BenchmarkEngineTick(b *testing.B) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 8
	cfg.NumAtomicBlocks = 1
	cfg.MemWords = 1 << 12
	cfg.Policy = seer.PolicySeq
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	per := b.N/8 + 1
	workers := make([]seer.Worker, 8)
	for i := range workers {
		workers[i] = func(t *seer.Thread) {
			for n := 0; n < per; n++ {
				t.Work(1)
			}
		}
	}
	b.ResetTimer()
	if _, err := sys.Run(workers); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkObsCell measures one cell with every observability sink on — a
// bench-clique32-sized Seer cell, as in the ledger's infer-obs workload —
// on a warm Recycler: `go test -bench ObsCell -benchmem` reproduces the
// steady-state allocations per cell without the ledger.
func BenchmarkObsCell(b *testing.B) {
	rec := new(seer.Recycler)
	cell := func() {
		sys, rep := obsCell(b, adversary.Clique(32), 8000, 1, rec, true)
		_ = rep.Summary()
		sys.Release()
	}
	cell()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}
