package seer_test

import (
	"fmt"
	"strings"
	"testing"

	"seer"
	"seer/internal/harness"
	"seer/internal/stamp"
)

// observed is what a run lets an observer compare across sink settings:
// the report digest without its timeline and inference lines and the
// engine's own counters (speculative-quantum totals included).
type observed struct {
	summary  string
	counters seer.EngineCounters
}

// observe reduces a finished run to what must not depend on its sinks.
func observe(rep seer.Report, sys *seer.System) observed {
	var kept []string
	for _, line := range strings.SplitAfter(rep.Summary(), "\n") {
		if !strings.HasPrefix(line, "timeline") && !strings.HasPrefix(line, "interval[") && !strings.HasPrefix(line, "inference[") {
			kept = append(kept, line)
		}
	}
	return observed{strings.Join(kept, ""), sys.EngineCounters()}
}

// withSinks turns all four observability sinks on or off.
func withSinks(cfg seer.Config, on bool) seer.Config {
	cfg.TraceEvents, cfg.MetricsInterval, cfg.TraceAttempts, cfg.AttributionCounters = 0, 0, false, false
	if on {
		cfg.TraceEvents, cfg.MetricsInterval, cfg.TraceAttempts, cfg.AttributionCounters = 4096, 4096, true, true
	}
	return cfg
}

// TestObservationInvariance: observing a run may not change the work the
// engine does. Every cell of the determinism grid, and of the scaling
// exhibit's grid up to 128 threads, runs with the event log, the
// timeline, attempt spans and attribution all on and with all four off;
// the report (less the lines only a sink produces) and the engine counters
// must be equal.
func TestObservationInvariance(t *testing.T) {
	compare := func(name string, run func(cfg seer.Config) observed, cfg seer.Config) {
		t.Helper()
		on, off := run(withSinks(cfg, true)), run(withSinks(cfg, false))
		if on != off {
			t.Fatalf("%s: observed run differs from the unobserved one:\n--- sinks on ---\n%s%+v\n--- sinks off ---\n%s%+v",
				name, on.summary, on.counters, off.summary, off.counters)
		}
	}

	for _, pol := range detPolicies {
		compare(fmt.Sprintf("determinism/%s", pol), func(cfg seer.Config) observed {
			var sys *seer.System
			rep := detReport(t, cfg, func(cfg seer.Config) (s *seer.System, err error) {
				sys, err = seer.NewSystem(cfg)
				return sys, err
			})
			return observe(rep, sys)
		}, detConfig(pol))
	}

	for _, shape := range harness.ScalingShapes {
		for _, pol := range harness.ScalingPolicies {
			for _, name := range stamp.Suite {
				spec := harness.Spec{Workload: name, Scale: 0.02, Policy: pol, Threads: shape.Threads(), Topology: shape}
				wl, err := stamp.New(name, spec.Scale)
				if err != nil {
					t.Fatal(err)
				}
				compare(fmt.Sprintf("scaling/%s/%s/%s", name, pol, shape), func(cfg seer.Config) observed {
					wl, err := stamp.New(name, spec.Scale)
					if err != nil {
						t.Fatal(err)
					}
					sys, rep, err := stamp.Run(wl, cfg)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", name, pol, shape, err)
					}
					return observe(rep, sys)
				}, spec.Config(wl, 1))
			}
		}
	}
}
