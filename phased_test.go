package seer_test

import (
	"strings"
	"testing"

	"seer"
	"seer/internal/stamp"
)

// runCapBound executes the capacity-bound stamp workload (every atomic
// block's write set overflows the hardware budget) under the given
// policy and returns the report, failing the test on any validation
// error.
func runCapBound(t *testing.T, pol seer.PolicyKind) seer.Report {
	t.Helper()
	wl, err := stamp.New("capbound", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 8, seer.Topology{})
	cfg.Policy = pol
	cfg.Seed = 3
	_, rep, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPhasedCapacityBound is the headline phased-TM claim as a unit
// test: on a capacity-bound workload with disjoint per-thread footprints
// the phased runtime commits in software mode, transitions its mode
// word, serializes strictly less than RTM's lock fall-back, and
// finishes faster than full serialization.
func TestPhasedCapacityBound(t *testing.T) {
	rtm := runCapBound(t, seer.PolicyRTM)
	ph := runCapBound(t, seer.PolicyPhased)

	if ph.Phased == nil {
		t.Fatal("PolicyPhased report has no Phased section")
	}
	if ph.Phased.SWCommits == 0 {
		t.Fatal("no software commits on a capacity-bound workload")
	}
	if ph.Phased.Deferrals == 0 || ph.Phased.Transitions == 0 {
		t.Fatalf("mode word never moved: deferrals=%d transitions=%d",
			ph.Phased.Deferrals, ph.Phased.Transitions)
	}
	if ph.Modes[seer.ModeSTM] == 0 {
		t.Fatal("no commits recorded in the STM mode slot")
	}
	if ph.Phased.ModeCycles[1] == 0 {
		t.Fatal("zero cycles attributed to the SW phase")
	}
	// RTM can only commit these blocks through the single global lock;
	// the phased runtime must serialize strictly less and, because the
	// per-thread regions are disjoint, finish strictly sooner.
	if rtm.Fallbacks == 0 {
		t.Fatal("RTM baseline committed without the lock — workload is not capacity-bound")
	}
	if ph.Fallbacks >= rtm.Fallbacks {
		t.Fatalf("phased fallbacks %d >= RTM fallbacks %d", ph.Fallbacks, rtm.Fallbacks)
	}
	if ph.MakespanCycles >= rtm.MakespanCycles {
		t.Fatalf("phased makespan %d >= RTM makespan %d (software mode should beat serialization)",
			ph.MakespanCycles, rtm.MakespanCycles)
	}
}

// TestPhasedSTMModeLineConditional pins the report-digest byte-identity
// contract: the mode[STM sw-mode] summary line exists exactly when the
// Phased policy ran, so every other policy's digest — and therefore the
// determinism golden — is unchanged by the phased-TM layer.
func TestPhasedSTMModeLineConditional(t *testing.T) {
	rtm := runCapBound(t, seer.PolicyRTM)
	ph := runCapBound(t, seer.PolicyPhased)
	const line = "mode[STM sw-mode]="
	if s := rtm.Summary(); strings.Contains(s, line) {
		t.Fatalf("RTM summary mentions the STM mode:\n%s", s)
	}
	if s := ph.Summary(); !strings.Contains(s, line) {
		t.Fatalf("PhTM summary lacks the STM mode line:\n%s", s)
	}
}
