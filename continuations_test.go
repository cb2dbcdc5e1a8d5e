package seer_test

import (
	"fmt"
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// TestContinuationsInvisible: the engine-side acquire, wait and attempt
// prologue and the lazy herd are engine mechanics — every step they take
// for a thread lands at its (cycle, id) position with the real operations,
// or is settled in closed form where no thread can observe it — so
// turning them all off (seer.NewSystemUndelegated) may not move a byte of
// the report: over the determinism grid, with XBegin, TxLoad, AbortHandle,
// SpinQuantum and DirectLoad halved and doubled on it, and over every cell
// of the scaling exhibit's grid up to 128 threads. The delegating runs
// must also resume fewer coroutines and settle deferred acquirers, and the
// reference must settle none.
func TestContinuationsInvisible(t *testing.T) {
	var on, off seer.EngineCounters
	compare := func(name string, run func(newSystem func(seer.Config) (*seer.System, error)) (string, seer.EngineCounters)) {
		t.Helper()
		got, c := run(seer.NewSystem)
		want, ref := run(seer.NewSystemUndelegated)
		if got != want {
			t.Fatalf("%s: report differs with delegation off:\n--- on ---\n%s--- off ---\n%s", name, got, want)
		}
		on.Resumes += c.Resumes
		off.Resumes += ref.Resumes
		on.Settled += c.Settled
		off.Settled += ref.Settled
	}

	costs := []struct {
		name string
		f    func(*seer.CostModel) *uint64
	}{
		{"XBegin", func(c *seer.CostModel) *uint64 { return &c.XBegin }},
		{"TxLoad", func(c *seer.CostModel) *uint64 { return &c.TxLoad }},
		{"AbortHandle", func(c *seer.CostModel) *uint64 { return &c.AbortHandle }},
		{"SpinQuantum", func(c *seer.CostModel) *uint64 { return &c.SpinQuantum }},
		{"DirectLoad", func(c *seer.CostModel) *uint64 { return &c.DirectLoad }},
	}
	for _, pol := range detPolicies {
		variants := []seer.Config{detConfig(pol)}
		for _, cost := range costs {
			for _, scale := range []func(uint64) uint64{
				func(v uint64) uint64 { return v / 2 },
				func(v uint64) uint64 { return v * 2 },
			} {
				cfg := detConfig(pol)
				p := cost.f(&cfg.Cost)
				*p = scale(*p)
				variants = append(variants, cfg)
			}
		}
		for i, cfg := range variants {
			compare(fmt.Sprintf("determinism/%s/variant %d", pol, i), func(newSystem func(seer.Config) (*seer.System, error)) (string, seer.EngineCounters) {
				var sys *seer.System
				digest := detRunWith(t, cfg, func(cfg seer.Config) (s *seer.System, err error) {
					sys, err = newSystem(cfg)
					return sys, err
				})
				return digest, sys.EngineCounters()
			})
		}
	}

	for _, shape := range harness.ScalingShapes {
		for _, pol := range harness.ScalingPolicies {
			for _, name := range stamp.Suite {
				spec := harness.Spec{Workload: name, Scale: 0.02, Policy: pol, Threads: shape.Threads(), Topology: shape}
				compare(fmt.Sprintf("scaling/%s/%s/%s", name, pol, shape), func(newSystem func(seer.Config) (*seer.System, error)) (string, seer.EngineCounters) {
					wl, err := stamp.New(name, spec.Scale)
					if err != nil {
						t.Fatal(err)
					}
					cfg := spec.Config(wl, 1)
					sys, err := newSystem(cfg)
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
						t.Fatalf("%s/%s/%s: %v", name, pol, shape, err)
					}
					return rep.Summary(), sys.EngineCounters()
				})
			}
		}
	}
	if on.Resumes >= off.Resumes {
		t.Errorf("delegation resumed %d coroutines, %d without it", on.Resumes, off.Resumes)
	}
	if on.Settled == 0 || off.Settled != 0 {
		t.Errorf("%d deferred acquirers settled, %d on the unwired reference", on.Settled, off.Settled)
	}
}
