package seer_test

import (
	"testing"

	"seer"
	"seer/internal/stamp"
)

// TestEngineCountersHLECell pins the event loop's account of one fixed
// cell — intruder under HLE on the 8-thread testbed, where the lock herd
// makes every kind of engine-side step occur — to its exact values: the
// counters are as deterministic as the schedule, so any drift is a change
// in how the engine delivers events, not noise.
func TestEngineCountersHLECell(t *testing.T) {
	wl, err := stamp.New("intruder", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Policy = seer.PolicyHLE
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.EngineCounters()
	want := seer.EngineCounters{Resumes: 34693, AcquireSteps: 45926, Replays: 2599}
	if got != want || got.Events() != 83218 {
		t.Errorf("engine counters = %+v (%d events), want %+v (83218 events)", got, got.Events(), want)
	}
}
