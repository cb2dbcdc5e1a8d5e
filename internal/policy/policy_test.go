package policy

import (
	"testing"

	"seer/internal/core"
	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/spinlock"
	"seer/internal/telemetry"
	"seer/internal/topology"
)

// rig bundles a machine with all runtime pieces for policy tests.
type rig struct {
	eng *machine.Engine
	m   *mem.Memory
	u   *htm.Unit
	sgl spinlock.Lock
	cfg machine.Config

	ledger telemetry.Counters // runCounter's threads' ledgers, summed
}

// modesOf returns the commit-mode histogram of a ledger.
func modesOf(c *telemetry.Counters) ModeCounts { return ModeCounts(c.Modes[:NumModes]) }

func newRig(t *testing.T, threads int) *rig {
	t.Helper()
	cfg := machine.Config{Topo: topology.MustFromFlat(threads, (threads+1)/2), Seed: 17, Cost: machine.DefaultCostModel()}
	eng, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(1 << 14)
	u := htm.New(m, cfg, htm.Config{ReadSetLines: 64, WriteSetLines: 16})
	spinlock.Wire(eng, m)
	return &rig{eng: eng, m: m, u: u, sgl: spinlock.New(m), cfg: cfg}
}

// runCounter has each thread increment a shared counter ops times under
// the given policy, returning the merged mode counts; r.ledger holds the
// merged ledgers.
func (r *rig) runCounter(t *testing.T, pol Policy, threads, ops int) ModeCounts {
	t.Helper()
	counter := r.m.AllocLines(1)
	threadsSlice := make([]*Thread, threads)
	bodies := make([]func(*machine.Ctx), threads)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			th := NewThread(c, r.m, r.u)
			threadsSlice[idx] = th
			if sp, ok := pol.(*Seer); ok {
				th.Seer = sp.Sched.NewThreadState(c)
				th.Seer.Ledger = &th.Counters
			}
			for n := 0; n < ops; n++ {
				pol.Run(th, 0, 0, func(a mem.Access) {
					a.Store(counter, a.Load(counter)+1)
					a.Work(20)
				})
				c.Work(uint64(5 + c.Rand().Intn(10)))
			}
		}
	}
	if _, err := r.eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if got := r.m.Peek(counter); got != uint64(threads*ops) {
		t.Fatalf("%s: counter = %d, want %d (atomicity broken)", pol.Name(), got, threads*ops)
	}
	r.ledger = telemetry.Counters{}
	for _, th := range threadsSlice {
		r.ledger.Add(&th.Counters)
	}
	total := modesOf(&r.ledger)
	if got := total.Total(); got != uint64(threads*ops) {
		t.Fatalf("%s: mode total = %d, want %d", pol.Name(), got, threads*ops)
	}
	return total
}

func TestHLEAtomicity(t *testing.T) {
	r := newRig(t, 4)
	modes := r.runCounter(t, NewHLE(r.sgl), 4, 100)
	if modes[ModeHTM]+modes[ModeSGL] != modes.Total() {
		t.Fatalf("HLE used unexpected modes: %v", modes)
	}
}

func TestRTMAtomicity(t *testing.T) {
	r := newRig(t, 4)
	modes := r.runCounter(t, &RTM{SGL: r.sgl, MaxAttempts: 5}, 4, 100)
	if modes[ModeHTMAux] != 0 || modes[ModeHTMTx] != 0 {
		t.Fatalf("RTM used lock modes: %v", modes)
	}
}

func TestSCMAtomicity(t *testing.T) {
	r := newRig(t, 4)
	modes := r.runCounter(t, &SCM{SGL: r.sgl, Aux: spinlock.New(r.m), MaxAttempts: 5}, 4, 100)
	// Under this contention SCM must commit at least some transactions
	// under the auxiliary lock.
	if modes[ModeHTMAux] == 0 {
		t.Logf("note: no aux-lock commits under this contention: %v", modes)
	}
	if modes[ModeHTMTx] != 0 || modes[ModeHTMCore] != 0 {
		t.Fatalf("SCM used Seer modes: %v", modes)
	}
}

func newSeerPolicy(r *rig, opts core.Options) *Seer {
	rng := machine.NewRand(33)
	sched := core.New(1, r.cfg, r.m, r.u, opts, &rng)
	return &Seer{SGL: r.sgl, MaxAttempts: 5, Sched: sched}
}

func TestSeerAtomicity(t *testing.T) {
	r := newRig(t, 4)
	opts := core.DefaultOptions()
	opts.UpdateEvery = 50
	modes := r.runCounter(t, newSeerPolicy(r, opts), 4, 100)
	if modes[ModeHTMAux] != 0 {
		t.Fatalf("Seer used SCM's aux mode: %v", modes)
	}
}

func TestSeerProfileOnlyNeverLocks(t *testing.T) {
	r := newRig(t, 4)
	opts := core.ProfileOnly()
	opts.UpdateEvery = 50
	modes := r.runCounter(t, newSeerPolicy(r, opts), 4, 100)
	if modes[ModeHTMTx] != 0 || modes[ModeHTMCore] != 0 || modes[ModeHTMTxCore] != 0 {
		t.Fatalf("profile-only Seer acquired locks: %v", modes)
	}
}

// TestHLELemming: once contention makes HLE's single attempt fail, it
// must show a much larger SGL share than RTM on the same workload.
func TestHLELemming(t *testing.T) {
	r1 := newRig(t, 8)
	hle := r1.runCounter(t, NewHLE(r1.sgl), 8, 80)
	r2 := newRig(t, 8)
	rtm := r2.runCounter(t, &RTM{SGL: r2.sgl, MaxAttempts: 5}, 8, 80)
	if hle.Fraction(ModeSGL) <= rtm.Fraction(ModeSGL) {
		t.Fatalf("HLE SGL share (%.2f) not above RTM's (%.2f): no lemming effect",
			hle.Fraction(ModeSGL), rtm.Fraction(ModeSGL))
	}
}

// TestSGLPathRunsOnce: a body observed on the fall-back path runs exactly
// once there (no retries under the lock).
func TestSGLPathRunsOnce(t *testing.T) {
	r := newRig(t, 1)
	pol := &RTM{SGL: r.sgl, MaxAttempts: 2}
	counter := r.m.AllocLines(1)
	execs := 0
	if _, err := r.eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
		th := NewThread(c, r.m, r.u)
		pol.Run(th, 0, 0, func(a mem.Access) {
			execs++
			// Force hardware aborts so the fall-back path is taken:
			// writing 32 lines exceeds the 16-line budget.
			if _, isTx := a.(*htm.Tx); isTx {
				base := counter
				for i := 0; i < 32; i++ {
					a.Store(base+mem.Addr(i%8), 1)
					base += mem.LineWords
				}
			} else {
				a.Store(counter, a.Load(counter)+1)
			}
		})
	}}); err != nil {
		t.Fatal(err)
	}
	if execs != 3 { // 2 hardware attempts + 1 SGL execution
		t.Fatalf("body executed %d times, want 3", execs)
	}
	if r.m.Peek(counter) != 1 {
		t.Fatalf("SGL execution effect wrong: %d", r.m.Peek(counter))
	}
}

// TestModeString covers the Table 3 labels.
func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeHTM:       "HTM no locks",
		ModeHTMAux:    "HTM + Aux lock",
		ModeHTMTx:     "HTM + Tx Locks",
		ModeHTMCore:   "HTM + Core Locks",
		ModeHTMTxCore: "HTM + Tx + Core Locks",
		ModeSGL:       "SGL fall-back",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Mode(99).String() == "" {
		t.Errorf("unknown mode must still render")
	}
}

func TestModeCountsHelpers(t *testing.T) {
	var mc ModeCounts
	mc[ModeHTM] = 3
	mc[ModeSGL] = 1
	if mc.Total() != 4 {
		t.Fatalf("Total = %d", mc.Total())
	}
	if f := mc.Fraction(ModeSGL); f != 0.25 {
		t.Fatalf("Fraction = %v", f)
	}
	var other ModeCounts
	other[ModeHTM] = 2
	mc.Add(other)
	if mc[ModeHTM] != 5 {
		t.Fatalf("Add failed: %v", mc)
	}
	var empty ModeCounts
	if empty.Fraction(ModeHTM) != 0 {
		t.Fatalf("empty Fraction must be 0")
	}
}

// TestSequentialPolicy: no hardware transactions, no locks.
func TestSequentialPolicy(t *testing.T) {
	r := newRig(t, 1)
	r.runCounter(t, &Sequential{}, 1, 50)
	if r.ledger.Paths != [telemetry.NumPaths]telemetry.Outcomes{} {
		t.Fatalf("sequential policy used the HTM: %+v", r.ledger.Paths)
	}
}

// commitsOf returns the attempts of o that did not abort.
func commitsOf(o telemetry.Outcomes) uint64 {
	n := o.Attempts
	for _, a := range o.Aborts {
		n -= a
	}
	return n
}

// TestLedgerKeepsPathsApart: every attempt is counted once, on the path it
// ran. Under PhTM, whose capacity aborts defer threads to the software
// commit path, each path's commits are exactly its commit mode's count and
// the software path has no capacity aborts (it has no capacity model);
// under RTM the software path stays empty. Neither policy takes Seer's
// multi-CAS path.
func TestLedgerKeepsPathsApart(t *testing.T) {
	r := newRig(t, 2)
	pol := NewPhased(r.sgl, 5, 2)
	threads := make([]*Thread, 2)
	bodies := make([]func(*machine.Ctx), 2)
	for i := range bodies {
		idx := i
		region := r.m.AllocLines(20) // disjoint: no data conflicts
		bodies[i] = func(c *machine.Ctx) {
			th := NewThread(c, r.m, r.u)
			threads[idx] = th
			for n := 0; n < 80; n++ {
				lines := 1
				if n%4 == 3 {
					lines = 20 // over the write budget (16): a capacity abort in hardware
				}
				pol.Run(th, 0, 0, func(a mem.Access) {
					for l := 0; l < lines; l++ {
						addr := region + mem.Addr(l*mem.LineWords)
						a.Store(addr, a.Load(addr)+1)
					}
				})
				c.Work(10)
			}
		}
	}
	if _, err := r.eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	var c telemetry.Counters
	for _, th := range threads {
		c.Add(&th.Counters)
	}
	hw, sw := c.Paths[telemetry.PathHW], c.Paths[telemetry.PathSW]
	if hw.Aborts[htm.CauseCapacity] == 0 || sw.Attempts == 0 {
		t.Fatalf("workload never deferred to the software path: hw %+v, sw %+v", hw, sw)
	}
	if got := commitsOf(hw); got != c.Modes[ModeHTM] {
		t.Errorf("hardware path commits %d, HTM-mode commits %d", got, c.Modes[ModeHTM])
	}
	if got := commitsOf(sw); got != c.Modes[ModeSTM] {
		t.Errorf("software path commits %d, STM-mode commits %d", got, c.Modes[ModeSTM])
	}
	if sw.Aborts[htm.CauseCapacity] != 0 {
		t.Errorf("software path booked %d capacity aborts", sw.Aborts[htm.CauseCapacity])
	}
	if cas := c.Paths[telemetry.PathMultiCAS]; cas != (telemetry.Outcomes{}) {
		t.Errorf("PhTM booked multi-CAS outcomes: %+v", cas)
	}

	r = newRig(t, 4)
	modes := r.runCounter(t, &RTM{SGL: r.sgl, MaxAttempts: 5}, 4, 100)
	if got := commitsOf(r.ledger.Paths[telemetry.PathHW]); got != modes[ModeHTM] {
		t.Errorf("RTM: hardware path commits %d, HTM-mode commits %d", got, modes[ModeHTM])
	}
	if p := r.ledger.Paths; p[telemetry.PathSW] != (telemetry.Outcomes{}) || p[telemetry.PathMultiCAS] != (telemetry.Outcomes{}) {
		t.Errorf("RTM booked software or multi-CAS outcomes: %+v", p)
	}
}

// TestSeerCoreLockOnCapacityWorkload: a capacity-heavy workload under
// Seer must commit some transactions holding core locks.
func TestSeerCoreLockOnCapacityWorkload(t *testing.T) {
	r := newRig(t, 2) // hyperthread siblings on one core
	opts := core.DefaultOptions()
	opts.UpdateEvery = 50
	pol := newSeerPolicy(r, opts)
	regions := []mem.Addr{r.m.AllocLines(12), r.m.AllocLines(12)}
	var modes ModeCounts
	threads := make([]*Thread, 2)
	bodies := make([]func(*machine.Ctx), 2)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			th := NewThread(c, r.m, r.u)
			th.Seer = pol.Sched.NewThreadState(c)
			th.Seer.Ledger = &th.Counters
			threads[idx] = th
			region := regions[idx] // disjoint: no data conflicts
			for n := 0; n < 60; n++ {
				pol.Run(th, 0, 0, func(a mem.Access) {
					// 12 lines: under the solo budget (16), above the
					// shared one (8).
					for l := 0; l < 12; l++ {
						addr := region + mem.Addr(l*mem.LineWords)
						a.Store(addr, a.Load(addr)+1)
					}
				})
				c.Work(10)
			}
		}
	}
	if _, err := r.eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	for _, th := range threads {
		modes.Add(modesOf(&th.Counters))
	}
	coreLocked := modes[ModeHTMCore] + modes[ModeHTMTxCore]
	if coreLocked == 0 {
		t.Fatalf("no core-locked commits despite capacity pressure: %v", modes)
	}
}

// TestATSAtomicityAndAdaptation: ATS preserves atomicity and its
// contention-intensity signal triggers serial dispatch under load.
func TestATSAtomicityAndAdaptation(t *testing.T) {
	r := newRig(t, 8)
	pol := NewATS(r.sgl, spinlock.New(r.m), 5, 8)
	modes := r.runCounter(t, pol, 8, 80)
	if modes[ModeHTMAux] == 0 {
		t.Fatalf("ATS never serialized under 8-thread contention: %v", modes)
	}
	// CI values must be valid EMA outputs.
	for hw := 0; hw < 8; hw++ {
		if ci := pol.CI(hw); ci < 0 || ci > 1 {
			t.Fatalf("CI(%d) = %v out of range", hw, ci)
		}
	}
}

// TestATSStaysConcurrentWhenCalm: with no contention the dispatch lock is
// never taken.
func TestATSStaysConcurrentWhenCalm(t *testing.T) {
	r := newRig(t, 4)
	pol := NewATS(r.sgl, spinlock.New(r.m), 5, 4)
	regions := make([]mem.Addr, 4)
	for i := range regions {
		regions[i] = r.m.AllocLines(1)
	}
	threads := make([]*Thread, 4)
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			th := NewThread(c, r.m, r.u)
			threads[idx] = th
			region := regions[idx] // disjoint: conflict-free
			for n := 0; n < 50; n++ {
				pol.Run(th, 0, 0, func(a mem.Access) {
					a.Store(region, a.Load(region)+1)
				})
				c.Work(20)
			}
		}
	}
	if _, err := r.eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	var modes ModeCounts
	for _, th := range threads {
		modes.Add(modesOf(&th.Counters))
	}
	if modes[ModeHTMAux] != 0 || modes[ModeSGL] != 0 {
		t.Fatalf("calm workload triggered serialization: %v", modes)
	}
}

// TestOracleAtomicityAndWaiting: the oracle policy preserves atomicity
// and, with precise feedback, must not fall back more often than RTM on
// the same contended workload.
func TestOracleAtomicityAndWaiting(t *testing.T) {
	r1 := newRig(t, 8)
	oracle := r1.runCounter(t, NewOracle(r1.sgl, 5), 8, 80)
	r2 := newRig(t, 8)
	rtm := r2.runCounter(t, &RTM{SGL: r2.sgl, MaxAttempts: 5}, 8, 80)
	// On a single saturated counter there is no parallelism for precise
	// feedback to save, so allow statistical noise; the oracle must just
	// not be materially worse.
	if oracle.Fraction(ModeSGL) > rtm.Fraction(ModeSGL)+0.05 {
		t.Fatalf("oracle fell back materially more than RTM: %.2f vs %.2f",
			oracle.Fraction(ModeSGL), rtm.Fraction(ModeSGL))
	}
}

// TestLastConflictorExposed: the HTM names the dooming thread after a
// conflict abort (simulator-only oracle interface).
func TestLastConflictorExposed(t *testing.T) {
	r := newRig(t, 2)
	a := r.m.AllocLines(1)
	var conflictor int
	bodies := []func(*machine.Ctx){
		func(c *machine.Ctx) {
			st := r.u.Run(c, func(tx *htm.Tx) {
				tx.Store(a, 1)
				tx.Work(400)
			})
			if st.Conflict() {
				conflictor = r.u.LastConflictor(0)
			} else {
				conflictor = -2
			}
		},
		func(c *machine.Ctx) {
			c.Tick(80)
			r.u.Run(c, func(tx *htm.Tx) { tx.Store(a, 2) })
		},
	}
	if _, err := r.eng.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if conflictor != 1 {
		t.Fatalf("LastConflictor = %d, want 1", conflictor)
	}
}

// TestTelemetryModeNames: telemetry indexes its per-mode arrays and CSV
// columns by Mode, so it must name exactly the modes there are, and its
// fixed-size arrays must hold them.
func TestTelemetryModeNames(t *testing.T) {
	if len(telemetry.ModeNames) != int(NumModes) {
		t.Fatalf("telemetry names %d modes, policy has %d", len(telemetry.ModeNames), NumModes)
	}
	if int(NumModes) > telemetry.MaxModes {
		t.Fatalf("NumModes %d exceeds telemetry.MaxModes %d", NumModes, telemetry.MaxModes)
	}
	// Report and timeline read fall-backs off the SGL commit slot.
	if ModeSGL != telemetry.ModeSGL || telemetry.ModeNames[telemetry.ModeSGL] != "sgl" {
		t.Fatalf("ModeSGL = %d, telemetry.ModeSGL = %d (%q)", ModeSGL, telemetry.ModeSGL, telemetry.ModeNames[telemetry.ModeSGL])
	}
	// attempt indexes the ledger's paths by phase.
	if PhaseHW != telemetry.PathHW || PhaseSW != telemetry.PathSW {
		t.Fatalf("phases HW=%d SW=%d, ledger paths HW=%d SW=%d", PhaseHW, PhaseSW, telemetry.PathHW, telemetry.PathSW)
	}
}

// TestShardCountsCommitsAndAborts: a policy whose ledgers are bound to an
// observability recorder shows its commit, attempt and abort accounting in
// the timeline.
func TestShardCountsCommitsAndAborts(t *testing.T) {
	r := newRig(t, 4)
	rec := telemetry.New(telemetry.Options{Threads: 4, Interval: 1 << 40})
	pol := &RTM{SGL: r.sgl, MaxAttempts: 5}
	counter := r.m.AllocLines(1)
	threadsSlice := make([]*Thread, 4)
	bodies := make([]func(*machine.Ctx), 4)
	for i := range bodies {
		idx := i
		bodies[i] = func(c *machine.Ctx) {
			th := NewThread(c, r.m, r.u)
			th.Obs = rec.Bind(c.ID(), &th.Counters)
			threadsSlice[idx] = th
			for n := 0; n < 40; n++ {
				pol.Run(th, 0, 0, func(a mem.Access) {
					a.Store(counter, a.Load(counter)+1)
					a.Work(20)
				})
			}
		}
	}
	makespan, err := r.eng.Run(bodies)
	if err != nil {
		t.Fatal(err)
	}
	var modes ModeCounts
	var attempts, fallbacks uint64
	for _, th := range threadsSlice {
		modes.Add(modesOf(&th.Counters))
		attempts += th.Paths[telemetry.PathHW].Attempts
		fallbacks += th.Modes[ModeSGL]
	}
	rec.Flush(makespan)
	snap := rec.Timeline()[0] // the interval outlasts the run: one snapshot
	var telAborts uint64
	for _, a := range snap.Aborts {
		telAborts += a
	}
	if snap.Commits != modes.Total() {
		t.Fatalf("telemetry commits %d != thread commits %d", snap.Commits, modes.Total())
	}
	if snap.Attempts != attempts {
		t.Fatalf("telemetry attempts %d != thread attempts %d", snap.Attempts, attempts)
	}
	if snap.Fallbacks != fallbacks {
		t.Fatalf("telemetry fallbacks %d != thread fallbacks %d", snap.Fallbacks, fallbacks)
	}
	// Every attempt either committed in hardware or aborted.
	hwCommits := snap.Commits - snap.Fallbacks
	if snap.Attempts != hwCommits+telAborts {
		t.Fatalf("attempts %d != hw commits %d + aborts %d", snap.Attempts, hwCommits, telAborts)
	}
}

// TestPolicyPathsZeroAllocs: under every retry policy, the steady-state
// commit path and the capacity-abort path must not touch the heap. A
// 32-line body against the 16-line write budget aborts every hardware
// attempt: SCM takes its auxiliary lock and ATS, once its contention
// intensity crosses the threshold, its dispatch lock (Thread.acquire)
// before the SGL fall-back; PhTM defers the body to its software path.
func TestPolicyPathsZeroAllocs(t *testing.T) {
	policies := []struct {
		name string
		make func(r *rig) Policy
	}{
		{"HLE", func(r *rig) Policy { return NewHLE(r.sgl) }},
		{"RTM", func(r *rig) Policy { return &RTM{SGL: r.sgl, MaxAttempts: 3} }},
		{"SCM", func(r *rig) Policy { return &SCM{SGL: r.sgl, Aux: spinlock.New(r.m), MaxAttempts: 3} }},
		{"ATS", func(r *rig) Policy { return NewATS(r.sgl, spinlock.New(r.m), 3, 1) }},
		{"Oracle", func(r *rig) Policy { return NewOracle(r.sgl, 3) }},
		{"Backoff", func(r *rig) Policy { return NewBackoff(r.sgl, 3, 1) }},
		{"PhTM", func(r *rig) Policy { return NewPhased(r.sgl, 3, 1) }},
	}
	for _, p := range policies {
		for _, lines := range []int{1, 32} {
			r := newRig(t, 1)
			pol := p.make(r)
			region := r.m.AllocLines(lines)
			if _, err := r.eng.Run([]func(*machine.Ctx){func(c *machine.Ctx) {
				th := NewThread(c, r.m, r.u)
				body := func(a mem.Access) {
					for i := range lines {
						a.Store(region+mem.Addr(i*mem.LineWords), 1)
					}
				}
				for range 8 { // warm-up: sizes the event queue, lifts ATS over its threshold
					pol.Run(th, 0, 0, body)
				}
				if lines > 1 && th.Modes[ModeSGL]+th.Modes[ModeSTM] == 0 {
					t.Fatalf("%s: the capacity-bound body never left the hardware path: %v", p.name, modesOf(&th.Counters))
				}
				allocs := testing.AllocsPerRun(100, func() {
					pol.Run(th, 0, 0, body)
				})
				if allocs != 0 {
					t.Errorf("%s, %d-line body: steady state allocates %.1f per run, want 0", p.name, lines, allocs)
				}
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBeginRunZeroAllocs: after a Run, restarting the run state of Seer
// (core.Seer.BeginRun), PhTM and Backoff reuses its storage.
func TestBeginRunZeroAllocs(t *testing.T) {
	r := newRig(t, 4)
	for _, pol := range []interface {
		Policy
		BeginRun()
	}{newSeerPolicy(r, core.DefaultOptions()), NewPhased(r.sgl, 5, 4), NewBackoff(r.sgl, 5, 4)} {
		r.runCounter(t, pol, 4, 50)
		if allocs := testing.AllocsPerRun(100, pol.BeginRun); allocs != 0 {
			t.Errorf("%s: BeginRun allocates %.1f per call, want 0", pol.Name(), allocs)
		}
	}
}
