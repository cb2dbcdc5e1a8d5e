package tune

import (
	"math"
	"testing"
	"testing/quick"

	"seer/internal/machine"
)

func newClimber(seed uint64, cfg Config) *HillClimber {
	rng := machine.NewRand(seed)
	return New(DefaultInit(), cfg, &rng)
}

func TestInitialParams(t *testing.T) {
	h := newClimber(1, DefaultConfig())
	p := h.Params()
	if p.Th1 != 0.3 || p.Th2 != 0.8 {
		t.Fatalf("initial params = %+v, want the paper's (0.3, 0.8)", p)
	}
}

func TestParamsStayInRange(t *testing.T) {
	h := newClimber(2, Config{Step: 0.5, JumpProb: 0.2})
	for i := 0; i < 1000; i++ {
		p := h.Params()
		if p.Th1 < 0 || p.Th1 > 1 || p.Th2 < 0 || p.Th2 > 1 {
			t.Fatalf("params out of range at move %d: %+v", i, p)
		}
		h.Feedback(float64(i % 7))
	}
}

// TestClimbsTowardOptimum: on a smooth unimodal objective the climber's
// best point approaches the optimum.
func TestClimbsTowardOptimum(t *testing.T) {
	h := newClimber(3, Config{Step: 0.08, JumpProb: 0})
	objective := func(p Params) float64 {
		// Peak at (0.1, 0.2).
		d1 := p.Th1 - 0.1
		d2 := p.Th2 - 0.2
		return 1 - (d1*d1 + d2*d2)
	}
	for i := 0; i < 400; i++ {
		h.Feedback(objective(h.Params()))
	}
	best, val := h.Best()
	if val < objective(Params{Th1: 0.2, Th2: 0.35}) {
		t.Fatalf("climber stuck: best %+v value %v", best, val)
	}
	if d := (best.Th1-0.1)*(best.Th1-0.1) + (best.Th2-0.2)*(best.Th2-0.2); d > 0.05 {
		t.Fatalf("best %+v too far from optimum (d²=%v)", best, d)
	}
}

// TestKeepsBestUnderNoise: the best point's recorded value never
// decreases.
func TestKeepsBestUnderNoise(t *testing.T) {
	h := newClimber(4, DefaultConfig())
	rng := machine.NewRand(99)
	prevBest := -1.0
	for i := 0; i < 300; i++ {
		h.Feedback(rng.Float64())
		_, v := h.Best()
		if v < prevBest {
			t.Fatalf("best value decreased: %v -> %v", prevBest, v)
		}
		prevBest = v
	}
}

func TestRandomJumpsEscape(t *testing.T) {
	// With jump probability 1 every proposal is a uniform point, so the
	// proposals must spread across the space.
	h := newClimber(5, Config{Step: 0.01, JumpProb: 1})
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		p := h.Params()
		seen[int(p.Th1*4)*5+int(p.Th2*4)] = true
		h.Feedback(0)
	}
	if len(seen) < 8 {
		t.Fatalf("jump proposals cover only %d cells", len(seen))
	}
}

func TestMovesCounter(t *testing.T) {
	h := newClimber(6, DefaultConfig())
	for i := 0; i < 5; i++ {
		h.Feedback(1)
	}
	if h.Moves() != 5 {
		t.Fatalf("Moves = %d, want 5", h.Moves())
	}
}

// TestDeterministicQuick: identical seeds and feedback produce identical
// trajectories.
func TestDeterministicQuick(t *testing.T) {
	f := func(vals []uint8) bool {
		run := func() []Params {
			h := newClimber(7, DefaultConfig())
			var traj []Params
			for _, v := range vals {
				h.Feedback(float64(v))
				traj = append(traj, h.Params())
			}
			return traj
		}
		a, b := run(), run()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClampedInit(t *testing.T) {
	rng := machine.NewRand(1)
	h := New(Params{Th1: -3, Th2: 42}, DefaultConfig(), &rng)
	p := h.Params()
	if p.Th1 != 0 || p.Th2 != 1 {
		t.Fatalf("init not clamped: %+v", p)
	}
}

func TestHistoryRecordsTrajectory(t *testing.T) {
	h := newClimber(8, DefaultConfig())
	for i := 0; i < 10; i++ {
		h.Feedback(float64(i))
	}
	hist := h.History()
	if len(hist) != 10 {
		t.Fatalf("history length = %d, want 10", len(hist))
	}
	for i, s := range hist {
		if s.Value != float64(i) {
			t.Fatalf("history[%d].Value = %v, want %d", i, s.Value, i)
		}
	}
	// The cap bounds retention.
	for i := 0; i < 400; i++ {
		h.Feedback(1)
	}
	if got := len(h.History()); got != 256 {
		t.Fatalf("history not capped: %d", got)
	}
}

// TestBestGoesStaleAfterShift records a known divergence from a climber
// that tracks a moving optimum (ROADMAP item 24): Feedback never
// re-measures or ages bestValue. The objective peaks at (0.1, 0.2) for
// the first half of the run; then the workload's phase changes, every
// point's throughput halves and the peak moves to (0.8, 0.7). No
// post-shift epoch can beat the pre-shift incumbent's value, so Best()
// keeps the old point and a value nothing now yields, and the climber
// only perturbs that stale point. When the incumbent is re-measured,
// this test fails: flip it to require that Best() follows the peak.
func TestBestGoesStaleAfterShift(t *testing.T) {
	cfg := Config{Step: 0.08, JumpProb: 0}
	h := newClimber(3, cfg)
	peak := func(p, at Params, height float64) float64 {
		d1, d2 := p.Th1-at.Th1, p.Th2-at.Th2
		return height * (1 - (d1*d1 + d2*d2))
	}
	before := func(p Params) float64 { return peak(p, Params{Th1: 0.1, Th2: 0.2}, 1) }
	after := func(p Params) float64 { return peak(p, Params{Th1: 0.8, Th2: 0.7}, 0.5) }
	for i := 0; i < 200; i++ {
		h.Feedback(before(h.Params()))
	}
	oldBest, oldValue := h.Best()
	for i := 0; i < 200; i++ {
		h.Feedback(after(h.Params()))
	}
	best, value := h.Best()
	if best != oldBest || value != oldValue {
		t.Fatalf("Best() moved after the shift: %+v (%v) → %+v (%v)", oldBest, oldValue, best, value)
	}
	if now := after(best); value <= now {
		t.Fatalf("incumbent value %v is not stale: its point now yields %v", value, now)
	}
	// Every proposal stays within one step of the stale incumbent per axis.
	if p := h.Params(); math.Abs(p.Th1-best.Th1) > cfg.Step || math.Abs(p.Th2-best.Th2) > cfg.Step {
		t.Fatalf("proposal %+v is more than a step from the incumbent %+v", p, best)
	}
}
