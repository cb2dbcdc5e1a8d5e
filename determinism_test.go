package seer_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// detPolicies is every policy the runtime registers; each must be
// bit-for-bit reproducible for a fixed seed.
var detPolicies = []seer.PolicyKind{
	seer.PolicyHLE, seer.PolicyRTM, seer.PolicySCM,
	seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer, seer.PolicySeq,
	// Backoff and Phased are appended last (in introduction order) so
	// the golden sections of the older policies stay byte-identical
	// across the PRs that introduced them.
	seer.PolicyBackoff,
	seer.PolicyPhased,
}

// detConfig is the fixed configuration of the golden run: 4 workers on a
// hyperthreaded 8-thread/4-core machine, two atomic blocks, telemetry on.
func detConfig(pol seer.PolicyKind) seer.Config {
	cfg := seer.DefaultConfig()
	cfg.Policy = pol
	cfg.Threads = 4
	cfg.HWThreads = 8
	cfg.PhysCores = 4
	cfg.Seed = 42
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 16
	cfg.MetricsInterval = 1 << 15
	cfg.MaxCycles = 1 << 32
	if pol == seer.PolicySeq {
		// Sequential runs unsynchronized; it is the single-thread baseline.
		cfg.Threads = 1
	}
	return cfg
}

// detRun builds a fresh system, runs a small two-block contended workload
// and returns the canonical Report digest.
func detRun(t *testing.T, pol seer.PolicyKind) string {
	return detRunWith(t, detConfig(pol), seer.NewSystem)
}

// detRunWith is detRun on an explicit configuration and constructor, so
// variants can perturb implementation knobs that must not change results.
func detRunWith(t *testing.T, cfg seer.Config, newSystem func(seer.Config) (*seer.System, error)) string {
	t.Helper()
	return detReport(t, cfg, newSystem).Summary()
}

// detReport is detRunWith's run, returning the whole Report.
func detReport(t *testing.T, cfg seer.Config, newSystem func(seer.Config) (*seer.System, error)) seer.Report {
	t.Helper()
	pol := cfg.Policy
	sys, err := newSystem(cfg)
	if err != nil {
		t.Fatalf("%s: NewSystem: %v", pol, err)
	}
	const slots = 32
	arr := sys.AllocAligned(slots)
	sums := sys.AllocAligned(cfg.Threads)
	workers := make([]seer.Worker, cfg.Threads)
	for i := range workers {
		id := i
		workers[i] = func(th *seer.Thread) {
			for n := 0; n < 200; n++ {
				// Block 0: transfer between two random slots (writes, conflicts).
				th.Atomic(0, func(a seer.Access) {
					from := arr + seer.Addr(th.Rand().Intn(slots))
					to := arr + seer.Addr(th.Rand().Intn(slots))
					v := a.Load(from)
					a.Store(from, v-1)
					a.Store(to, a.Load(to)+1)
				})
				th.Work(20)
				// Block 1: scan a stripe and publish the sum (read mostly).
				th.Atomic(1, func(a seer.Access) {
					var sum uint64
					for k := 0; k < slots/4; k++ {
						sum += a.Load(arr + seer.Addr((id*slots/4+k)%slots))
					}
					a.Store(sums+seer.Addr(id), sum)
				})
			}
		}
	}
	rep, err := sys.Run(workers)
	if err != nil {
		t.Fatalf("%s: Run: %v", pol, err)
	}
	sys.Release() // hand buffers back when cfg carries a recycler
	return rep
}

// TestDeterminismRecyclerInvariant: a recycled simulator replica is reset
// to power-on state, so it may not move a single byte of the report. One
// buffer set is reused across every policy and repetition, exactly like
// a RunGrid worker. The cells alternate a large touched prefix of memory
// with a small one, so each large cell after the first regrows its memory
// over words and registry lines an earlier cell dirtied, and the first
// one grows past the recycled capacity.
func TestDeterminismRecyclerInvariant(t *testing.T) {
	rec := &seer.Recycler{}
	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer} {
		for use, pad := range []int{1 << 15, 0, 1 << 15} {
			base := detRunWith(t, detConfig(pol), padded(pad))
			cfg := detConfig(pol)
			cfg.Recycler = rec
			if got := detRunWith(t, cfg, padded(pad)); got != base {
				t.Fatalf("%s: recycled replica (use %d, pad %d) differs from fresh system:\n--- fresh ---\n%s--- recycled ---\n%s",
					pol, use, pad, base, got)
			}
		}
	}
}

// padded is NewSystem followed by a pad words long allocation, so the
// workload's data, and with it the touched prefix of memory, sits that
// much higher.
func padded(pad int) func(seer.Config) (*seer.System, error) {
	return func(cfg seer.Config) (*seer.System, error) {
		sys, err := seer.NewSystem(cfg)
		if err == nil && pad > 0 {
			sys.AllocAligned(pad)
		}
		return sys, err
	}
}

// quantumDepth is a system constructor whose engine speculates at depth k
// instead of DefaultSpeculativeQuantum; k = 0 is the per-tick reference.
func quantumDepth(k int) func(seer.Config) (*seer.System, error) {
	return func(cfg seer.Config) (*seer.System, error) { return seer.NewSystemQuantum(cfg, k) }
}

// TestDeterminismQuantumInvariant: the speculation depth is pure engine
// mechanics — the undo log replays or rolls back every deferred tick at
// its per-tick (cycle, id) position — so no depth may move a single byte
// of the report. The golden run itself executes at the default depth, so
// this test is what pins the per-tick baseline: depth 0 disables
// speculation entirely.
func TestDeterminismQuantumInvariant(t *testing.T) {
	for _, pol := range detPolicies {
		base := detRun(t, pol) // DefaultSpeculativeQuantum
		for _, k := range []int{0, 1, 7, 1024} {
			if got := detRunWith(t, detConfig(pol), quantumDepth(k)); got != base {
				t.Fatalf("%s: quantum=%d report differs from default:\n--- default ---\n%s--- quantum=%d ---\n%s",
					pol, k, base, k, got)
			}
		}
	}
}

// TestQuantumInvariantScalingShapes: every cell of the scaling exhibit's
// grid — ScalingShapes × ScalingPolicies × the STAMP suite, up to 128
// threads — digests identically on the per-tick reference engine, at an
// aggressive depth and at the default one.
func TestQuantumInvariantScalingShapes(t *testing.T) {
	for _, shape := range harness.ScalingShapes {
		for _, pol := range harness.ScalingPolicies {
			for _, name := range stamp.Suite {
				spec := harness.Spec{Workload: name, Scale: 0.02, Policy: pol, Threads: shape.Threads(), Topology: shape}
				run := func(k int) string {
					wl, err := stamp.New(name, spec.Scale)
					if err != nil {
						t.Fatal(err)
					}
					cfg := spec.Config(wl, 1)
					sys, err := seer.NewSystemQuantum(cfg, k)
					if err == nil {
						err = wl.Setup(sys)
					}
					var rep seer.Report
					if err == nil {
						rep, err = sys.Run(wl.Workers(cfg.Threads))
					}
					if err == nil {
						err = wl.Validate(sys)
					}
					if err != nil {
						t.Fatalf("%s/%s/%s quantum=%d: %v", name, pol, shape, k, err)
					}
					return rep.Summary()
				}
				base := run(seer.DefaultSpeculativeQuantum)
				for _, k := range []int{0, 256} {
					if got := run(k); got != base {
						t.Fatalf("%s/%s/%s: quantum=%d digest differs from default:\n--- default ---\n%s--- quantum=%d ---\n%s",
							name, pol, shape, k, base, k, got)
					}
				}
			}
		}
	}
}

// TestDeterminismGolden runs every policy three times on identical
// configurations and seeds. Each repetition must produce a byte-identical
// Report.Summary, and the concatenated per-policy digests must match the
// checked-in golden file (regenerate with `go test -run Golden -update .`).
func TestDeterminismGolden(t *testing.T) {
	var all strings.Builder
	for _, pol := range detPolicies {
		first := detRun(t, pol)
		for rep := 1; rep < 3; rep++ {
			if again := detRun(t, pol); again != first {
				t.Fatalf("%s: repetition %d differs from first run:\n--- first ---\n%s--- rep %d ---\n%s",
					pol, rep, first, rep, again)
			}
		}
		fmt.Fprintf(&all, "==== %s ====\n%s", pol, first)
	}
	golden := filepath.Join("testdata", "determinism.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if got := all.String(); got != string(want) {
		t.Fatalf("summaries diverge from %s — if the change is intentional, regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestFallbacksAreSGLCommits: every fall-back commits once on the single
// global lock and nothing else commits there, so under every policy the
// Report's fall-back count is its SGL commit slot.
func TestFallbacksAreSGLCommits(t *testing.T) {
	for _, pol := range detPolicies {
		rep := detReport(t, detConfig(pol), seer.NewSystem)
		if rep.Fallbacks != rep.Modes[seer.ModeSGL] {
			t.Errorf("%s: %d fall-backs, %d SGL commits", pol, rep.Fallbacks, rep.Modes[seer.ModeSGL])
		}
	}
}
