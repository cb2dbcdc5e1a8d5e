package seer_test

import (
	"fmt"
	"testing"

	"seer"
	"seer/internal/stamp"
)

// TestEngineCountersHLECell pins the event loop's account of one fixed
// cell — intruder under HLE on the 8-thread testbed, where the lock herd
// makes every kind of engine-side step occur — to its exact values: the
// counters are as deterministic as the schedule, so any drift is a change
// in how the engine delivers events, not noise.
//
// With eager wakes the cell took 45 926 acquire steps, 34 693 resumes and
// 2 599 replays. A release now queues only the acquirer that can win; each
// of the 13 631 settled losers is a poll, or a poll, lost CAS and re-poll,
// that no event delivers any more, which leaves 5 016 steps. The deferred
// acquirers no longer shorten the other threads' batch horizons either, so
// fewer ticks yield (23 392 resumes) or outrun a horizon into a quantum
// (1 793 replays).
//
// Two engine-side continuations then turned resumes into loop steps, one
// for one, so the 30 201 events stand. The wait continuation: the lemming
// waits on the SGL resume once, with the verdict, instead of at every
// woken poll and every poll tick that crossed a horizon; 515 resumes
// became steps (22 877 resumes, 5 531 steps). The attempt prologue: the
// begin tick, the subscription load and an SGL-held abort's AbortHandle
// tick run in the loop, and an attempt resumes once; 3 772 more resumes
// became steps (19 105 resumes, 9 303 steps). No tick changed sides of a
// quantum, so the replays and settled losers stand.
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
	want := seer.EngineCounters{Resumes: 19105, Steps: 9303, Replays: 1793, Settled: 13631}
	if got != want || got.Events() != 30201 {
		t.Errorf("engine counters = %+v (%d events), want %+v (30201 events)", got, got.Events(), want)
	}
}

// TestEngineCountersSGLHerd pins a 128-thread cell whose fall-backs pile
// up on the single global lock — intruder under RTM on 4s16c2t — where a
// release finds up to 127 acquirers parked: nearly all of them are
// settled at the winning store instead of stepped through the queue.
// With eager wakes the cell took 162 607 acquire steps and 189 688
// events; settling 51 600 losers leaves 4 973 steps and 29 201 events.
// The wait continuation turns 1 487 resumes at the lemming waits into loop
// steps (22 124 resumes, 6 460 steps). The attempt prologue, where every
// RTM retry against the held SGL aborts, turns 5 223 more: 16 901
// resumes, 11 683 steps, and still 29 201 events.
func TestEngineCountersSGLHerd(t *testing.T) {
	topo, err := seer.ParseTopology("4s16c2t")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := stamp.New("intruder", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stamp.Config(wl, 128, topo)
	cfg.Policy = seer.PolicyRTM
	sys, _, err := stamp.Run(wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.EngineCounters()
	want := seer.EngineCounters{Resumes: 16901, Steps: 11683, Replays: 617, Settled: 51600}
	if got.Settled == 0 || got != want {
		t.Errorf("engine counters = %+v, want %+v", got, want)
	}
}

// runHerdCell is stamp.Run on the system newSystem builds.
func runHerdCell(t *testing.T, wl stamp.Workload, cfg seer.Config, newSystem func(seer.Config) (*seer.System, error)) (seer.Report, seer.EngineCounters) {
	t.Helper()
	sys, err := newSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(wl.Workers(cfg.Threads))
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(sys); err != nil {
		t.Fatal(err)
	}
	return rep, sys.EngineCounters()
}

// TestLazyHerdCostModels: the lazy herd's closed form is written in
// LockOp, SpinQuantum and DirectLoad, which seer.Config.Cost makes public.
// With each of them halved and doubled, herd cells — the single global
// lock under RTM at 128 threads, Seer's transaction and core locks taken
// by multi-CAS at 32 threads, and HLE's convoy at 8 — must report exactly
// what they report on the reference (seer.NewSystemUndelegated: the same
// protocols run in the coroutines, every wake eager), and the lazy run
// must still settle deferred acquirers while the reference settles none.
func TestLazyHerdCostModels(t *testing.T) {
	cells := []struct {
		scale   float64
		threads int
		topo    string
		policy  seer.PolicyKind
	}{
		{0.02, 128, "4s16c2t", seer.PolicyRTM},
		{0.05, 32, "2s8c2t", seer.PolicySeer},
		{0.1, 8, "", seer.PolicyHLE},
	}
	costs := []struct {
		name string
		f    func(*seer.CostModel) *uint64
	}{
		{"LockOp", func(c *seer.CostModel) *uint64 { return &c.LockOp }},
		{"SpinQuantum", func(c *seer.CostModel) *uint64 { return &c.SpinQuantum }},
		{"DirectLoad", func(c *seer.CostModel) *uint64 { return &c.DirectLoad }},
	}
	for _, cell := range cells {
		var topo seer.Topology
		if cell.topo != "" {
			var err error
			if topo, err = seer.ParseTopology(cell.topo); err != nil {
				t.Fatal(err)
			}
		}
		wl, err := stamp.New("intruder", cell.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, cost := range costs {
			for _, scale := range []func(uint64) uint64{
				func(v uint64) uint64 { return v / 2 },
				func(v uint64) uint64 { return v * 2 },
			} {
				cfg := stamp.Config(wl, cell.threads, topo)
				cfg.Policy = cell.policy
				p := cost.f(&cfg.Cost)
				*p = scale(*p)
				name := fmt.Sprintf("%s/%dT %s=%d", cell.policy, cell.threads, cost.name, *p)
				lazy, counters := runHerdCell(t, wl, cfg, seer.NewSystem)
				eager, ref := runHerdCell(t, wl, cfg, seer.NewSystemUndelegated)
				if lazy.Summary() != eager.Summary() {
					t.Errorf("%s: report differs from eager wakes'\nlazy:\n%s\neager:\n%s", name, lazy.Summary(), eager.Summary())
				}
				if counters.Settled == 0 || ref.Settled != 0 {
					t.Errorf("%s: %d deferred acquirers settled, %d on the reference", name, counters.Settled, ref.Settled)
				}
				if s := lazy.Seer; s != nil && s.MultiCASOk+s.MultiCASFail == 0 {
					t.Errorf("%s: no multi-CAS ran", name)
				}
			}
		}
	}
}
