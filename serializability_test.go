package seer_test

import (
	"errors"
	"testing"
	"testing/quick"

	"seer"
	"seer/internal/adversary"
	"seer/internal/stamp"
)

// TestBankTransferConservation is the classic TM serializability check:
// random transfers between accounts must conserve the total balance under
// every policy, at every thread count, for random parameters.
func TestBankTransferConservation(t *testing.T) {
	for _, pol := range []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicyBackoff, seer.PolicySCM, seer.PolicySeer, seer.PolicyPhased} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			f := func(seed int64, nAccounts8 uint8, threads8 uint8) bool {
				nAccounts := int(nAccounts8%16) + 2
				threads := int(threads8%8) + 1
				cfg := seer.DefaultConfig()
				cfg.Policy = pol
				cfg.Threads = threads
				cfg.HWThreads = 8
				cfg.PhysCores = 4
				cfg.Seed = seed
				cfg.NumAtomicBlocks = 2
				cfg.MemWords = 1 << 14
				cfg.MaxCycles = 1 << 32
				sys, err := seer.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				accounts := sys.AllocLines(nAccounts)
				const initial = 1000
				for i := 0; i < nAccounts; i++ {
					sys.Poke(accounts+seer.Addr(i*8), initial)
				}
				workers := make([]seer.Worker, threads)
				for w := range workers {
					workers[w] = func(th *seer.Thread) {
						rng := th.Rand()
						for n := 0; n < 60; n++ {
							from := rng.Intn(nAccounts)
							to := rng.Intn(nAccounts)
							amount := uint64(rng.Intn(50))
							if rng.Bool(0.8) {
								th.Atomic(0, func(a seer.Access) {
									fa := accounts + seer.Addr(from*8)
									ta := accounts + seer.Addr(to*8)
									bal := a.Load(fa)
									if bal >= amount {
										a.Store(fa, bal-amount)
										a.Store(ta, a.Load(ta)+amount)
									}
								})
							} else {
								// Audit: sum all accounts (read-only).
								th.Atomic(1, func(a seer.Access) {
									var sum uint64
									for i := 0; i < nAccounts; i++ {
										sum += a.Load(accounts + seer.Addr(i*8))
									}
									_ = sum
								})
							}
						}
					}
				}
				if _, err := sys.Run(workers); err != nil {
					t.Fatal(err)
				}
				var total uint64
				for i := 0; i < nAccounts; i++ {
					total += sys.Peek(accounts + seer.Addr(i*8))
				}
				return total == uint64(nAccounts)*initial
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadOnlyAuditsSeeConsistentSnapshots: an auditor transaction
// summing two accounts while transfer transactions move money between
// them must always observe the invariant total — transactions are atomic,
// never partially visible.
func TestReadOnlyAuditsSeeConsistentSnapshots(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = 4
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 12
	cfg.MaxCycles = 1 << 32
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a1 := sys.AllocLines(1)
	a2 := sys.AllocLines(1)
	sys.Poke(a1, 500)
	sys.Poke(a2, 500)
	violations := 0
	workers := make([]seer.Worker, 4)
	for w := range workers {
		id := w
		workers[w] = func(th *seer.Thread) {
			rng := th.Rand()
			for n := 0; n < 150; n++ {
				if id < 2 {
					amount := uint64(rng.Intn(100))
					th.Atomic(0, func(a seer.Access) {
						b1 := a.Load(a1)
						if b1 >= amount {
							a.Store(a1, b1-amount)
							a.Store(a2, a.Load(a2)+amount)
						} else {
							b2 := a.Load(a2)
							a.Store(a2, 0)
							a.Store(a1, b1+b2)
						}
					})
				} else {
					var sum uint64
					th.Atomic(1, func(a seer.Access) {
						sum = a.Load(a1) + a.Load(a2)
					})
					if sum != 1000 {
						violations++ // assign-only accounting is unsafe
						// inside bodies; counting here (outside) is not:
						// sum carries the committed execution's value.
					}
				}
			}
		}
	}
	if _, err := sys.Run(workers); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d audits observed torn state", violations)
	}
}

// TestCapacityAbortConservation: when every transaction's footprint
// exceeds the HTM write-set budget, hardware attempts must capacity-abort
// and the runtime must push all commits through the fall-back paths
// (SGL, or Seer's tx/core locks) without losing atomicity. Each committed
// transaction increments every line of a shared region by one, so after
// the run every line must equal the total committed count.
func TestCapacityAbortConservation(t *testing.T) {
	const lines = 8
	for _, pol := range []seer.PolicyKind{seer.PolicyHLE, seer.PolicyRTM, seer.PolicyBackoff, seer.PolicySCM, seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer, seer.PolicyPhased} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			f := func(seed int64, threads8 uint8) bool {
				threads := int(threads8%4) + 2
				cfg := seer.DefaultConfig()
				cfg.Policy = pol
				cfg.Threads = threads
				cfg.HWThreads = 8
				cfg.PhysCores = 4
				cfg.Seed = seed
				cfg.NumAtomicBlocks = 1
				cfg.MemWords = 1 << 14
				cfg.HTM.WriteSetLines = lines / 2 // footprint is 2x the budget
				cfg.MaxCycles = 1 << 32
				sys, err := seer.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				region := sys.AllocLines(lines)
				const iters = 30
				workers := make([]seer.Worker, threads)
				for w := range workers {
					workers[w] = func(th *seer.Thread) {
						for n := 0; n < iters; n++ {
							th.Atomic(0, func(a seer.Access) {
								for l := 0; l < lines; l++ {
									addr := region + seer.Addr(l*8)
									a.Store(addr, a.Load(addr)+1)
								}
							})
							th.Work(15)
						}
					}
				}
				rep, err := sys.Run(workers)
				if err != nil {
					t.Fatal(err)
				}
				if rep.HTM.CapacityAborts == 0 {
					t.Fatalf("%s: no capacity aborts despite oversized footprint", pol)
				}
				want := uint64(threads * iters)
				for l := 0; l < lines; l++ {
					if got := sys.Peek(region + seer.Addr(l*8)); got != want {
						t.Fatalf("%s: line %d = %d, want %d (lost or duplicated increments)", pol, l, got, want)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdversarialConservation runs the synthetic worst-case conflict
// graphs under every retry policy, twice per graph: once with the
// default HTM budget and once with a write-set budget small enough that
// every transaction capacity-aborts and must commit through a fall-back
// path. The workload's own Validate checks conservation — every block
// counter and edge counter must account for exactly the operations the
// committed transactions performed, so lost or duplicated commits fail
// loudly whichever path they took.
func TestAdversarialConservation(t *testing.T) {
	graphs := []adversary.Graph{
		adversary.Ring(6), adversary.Star(6), adversary.Clique(4), adversary.PhaseShift(6),
	}
	policies := []seer.PolicyKind{
		seer.PolicyHLE, seer.PolicyRTM, seer.PolicyBackoff,
		seer.PolicySCM, seer.PolicyATS, seer.PolicyOracle, seer.PolicySeer,
	}
	for _, g := range graphs {
		for _, pol := range policies {
			for _, squeeze := range []bool{false, true} {
				g, pol, squeeze := g, pol, squeeze
				name := g.Name + "/" + string(pol)
				if squeeze {
					name += "/capacity"
				}
				t.Run(name, func(t *testing.T) {
					wl := adversary.New(g, 400)
					cfg := stamp.Config(wl, 4, seer.Topology{})
					cfg.Policy = pol
					cfg.Seed = 7
					if squeeze {
						// Every body writes a block line, its incident edge
						// lines and two stat lines; one write line of budget
						// guarantees a capacity abort on each attempt.
						cfg.HTM.WriteSetLines = 1
					}
					_, rep, err := stamp.Run(wl, cfg)
					if err != nil {
						t.Fatalf("%s under %s: %v", g.Name, pol, err)
					}
					if squeeze {
						if rep.HTM.CapacityAborts == 0 {
							t.Fatalf("no capacity aborts despite one-line write budget")
						}
						if rep.Modes[seer.ModeHTM] != 0 && pol != seer.PolicySeer && pol != seer.PolicyOracle {
							t.Fatalf("pure-HTM commits (%d) despite oversized footprint", rep.Modes[seer.ModeHTM])
						}
					}
				})
			}
		}
	}
}

// TestMixedBlockConservation runs four distinct atomic blocks — two
// intra-half transfer blocks, one cross-half block and a read-only global
// audit — concurrently. With NumAtomicBlocks > 2 Seer's pairwise
// statistics and locking scheme get distinct rows per block; whatever
// scheme it infers, money must be conserved and every audit must observe
// the full total.
func TestMixedBlockConservation(t *testing.T) {
	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer} {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			f := func(seed int64, threads8 uint8) bool {
				threads := int(threads8%6) + 2
				const nAccounts = 8 // two halves of 4
				const initial = 1000
				cfg := seer.DefaultConfig()
				cfg.Policy = pol
				cfg.Threads = threads
				cfg.HWThreads = 8
				cfg.PhysCores = 4
				cfg.Seed = seed
				cfg.NumAtomicBlocks = 4
				cfg.MemWords = 1 << 14
				cfg.MaxCycles = 1 << 32
				sys, err := seer.NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				accounts := sys.AllocLines(nAccounts)
				addr := func(i int) seer.Addr { return accounts + seer.Addr(i*8) }
				for i := 0; i < nAccounts; i++ {
					sys.Poke(addr(i), initial)
				}
				transfer := func(a seer.Access, from, to int, amount uint64) {
					bal := a.Load(addr(from))
					if bal >= amount {
						a.Store(addr(from), bal-amount)
						a.Store(addr(to), a.Load(addr(to))+amount)
					}
				}
				torn := make([]int, threads)
				workers := make([]seer.Worker, threads)
				for w := range workers {
					id := w
					workers[w] = func(th *seer.Thread) {
						rng := th.Rand()
						for n := 0; n < 60; n++ {
							amount := uint64(rng.Intn(40))
							switch rng.Intn(4) {
							case 0: // lower half only
								th.Atomic(0, func(a seer.Access) {
									transfer(a, rng.Intn(4), rng.Intn(4), amount)
								})
							case 1: // upper half only
								th.Atomic(1, func(a seer.Access) {
									transfer(a, 4+rng.Intn(4), 4+rng.Intn(4), amount)
								})
							case 2: // across the halves
								th.Atomic(2, func(a seer.Access) {
									transfer(a, rng.Intn(4), 4+rng.Intn(4), amount)
								})
							default: // global audit
								var sum uint64
								th.Atomic(3, func(a seer.Access) {
									sum = 0
									for i := 0; i < nAccounts; i++ {
										sum += a.Load(addr(i))
									}
								})
								if sum != nAccounts*initial {
									torn[id]++
								}
							}
						}
					}
				}
				if _, err := sys.Run(workers); err != nil {
					t.Fatal(err)
				}
				for id, v := range torn {
					if v > 0 {
						t.Fatalf("%s: thread %d saw %d torn audits", pol, id, v)
					}
				}
				var total uint64
				for i := 0; i < nAccounts; i++ {
					total += sys.Peek(addr(i))
				}
				return total == nAccounts*initial
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConfigValidation covers the public constructor's error paths; each
// violation must map to its named sentinel so callers can errors.Is.
func TestConfigValidation(t *testing.T) {
	base := seer.DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*seer.Config)
		want   error
	}{
		{"zero threads", func(c *seer.Config) { c.Threads = 0 }, seer.ErrThreads},
		{"negative threads", func(c *seer.Config) { c.Threads = -3 }, seer.ErrThreads},
		{"zero blocks", func(c *seer.Config) { c.NumAtomicBlocks = 0 }, seer.ErrNumAtomicBlocks},
		{"zero attempts", func(c *seer.Config) { c.MaxAttempts = 0 }, seer.ErrMaxAttempts},
		{"hwthreads below threads", func(c *seer.Config) { c.Threads = 8; c.HWThreads = 4 }, seer.ErrHWThreads},
		{"unknown policy", func(c *seer.Config) { c.Policy = "Bogus" }, seer.ErrPolicy},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if err := cfg.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := seer.NewSystem(cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: NewSystem = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDefaultConfigInvariants pins the paper's testbed shape: the default
// configuration must validate as-is and encode 8 hyperthreads on 4 cores
// with Intel's recommended 5-attempt retry budget and full Seer options.
func TestDefaultConfigInvariants(t *testing.T) {
	cfg := seer.DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
	if cfg.Threads != 8 || cfg.PhysCores != 4 {
		t.Fatalf("testbed shape = %d threads / %d cores, want 8/4", cfg.Threads, cfg.PhysCores)
	}
	if cfg.MaxAttempts != 5 {
		t.Fatalf("MaxAttempts = %d, want the paper's 5", cfg.MaxAttempts)
	}
	if cfg.Policy != seer.PolicySeer {
		t.Fatalf("default policy = %s, want Seer", cfg.Policy)
	}
	if cfg.NumAtomicBlocks <= 0 || cfg.MemWords <= 0 {
		t.Fatalf("degenerate defaults: blocks=%d memwords=%d", cfg.NumAtomicBlocks, cfg.MemWords)
	}
	if cfg.MaxCycles != 0 {
		t.Fatalf("MaxCycles = %d, want unlimited default", cfg.MaxCycles)
	}
	// A default system must actually build and run.
	if _, err := seer.NewSystem(cfg); err != nil {
		t.Fatalf("NewSystem(DefaultConfig) failed: %v", err)
	}
}

// TestTxIDRangeChecked: out-of-range atomic block ids panic loudly
// instead of corrupting the scheduler's tables.
func TestTxIDRangeChecked(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 1
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 10
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run([]seer.Worker{func(th *seer.Thread) {
		th.Atomic(2, func(a seer.Access) {})
	}})
	if err == nil {
		t.Fatalf("out-of-range txID did not error")
	}
}

// TestWorkerCountChecked: more workers than threads is an error.
func TestWorkerCountChecked(t *testing.T) {
	cfg := seer.DefaultConfig()
	cfg.Threads = 2
	cfg.MemWords = 1 << 10
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(make([]seer.Worker, 3)); err == nil {
		t.Fatalf("oversubscription not rejected")
	}
}

// TestReportContents: the report carries coherent counters.
func TestReportContents(t *testing.T) {
	rep, _, _ := runCounter(t, seer.PolicySeer, 4, 200)
	if rep.Policy != "Seer" || rep.Threads != 4 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if rep.Commits() != 800 {
		t.Fatalf("commits = %d", rep.Commits())
	}
	if rep.Throughput() <= 0 {
		t.Fatalf("throughput = %v", rep.Throughput())
	}
	if rep.HWAttempts < rep.HTM.Commits {
		t.Fatalf("attempts (%d) < hardware commits (%d)", rep.HWAttempts, rep.HTM.Commits)
	}
	if rep.Seer == nil {
		t.Fatalf("Seer policy report missing scheduler section")
	}
	if rep.String() == "" {
		t.Fatalf("empty String()")
	}
	fr := rep.ModeFractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("mode fractions sum to %v", sum)
	}
}

// TestHyperthreadCapacityPenalty: the same capacity-heavy workload
// commits via fall-back more often when the two workers share a physical
// core than when they have one each.
func TestHyperthreadCapacityPenalty(t *testing.T) {
	run := func(physCores int) seer.Report {
		cfg := seer.DefaultConfig()
		cfg.Policy = seer.PolicyRTM
		cfg.Threads = 2
		cfg.HWThreads = 2
		cfg.PhysCores = physCores
		cfg.NumAtomicBlocks = 1
		cfg.MemWords = 1 << 14
		cfg.HTM.WriteSetLines = 16
		cfg.MaxCycles = 1 << 32
		sys, err := seer.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		regions := []seer.Addr{sys.AllocLines(12), sys.AllocLines(12)}
		workers := make([]seer.Worker, 2)
		for w := range workers {
			region := regions[w]
			workers[w] = func(th *seer.Thread) {
				for n := 0; n < 100; n++ {
					th.Atomic(0, func(a seer.Access) {
						for l := 0; l < 12; l++ {
							addr := region + seer.Addr(l*8)
							a.Store(addr, a.Load(addr)+1)
						}
					})
					th.Work(10)
				}
			}
		}
		rep, err := sys.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	shared := run(1)   // both workers on one physical core
	separate := run(2) // one worker per core
	if shared.HTM.CapacityAborts <= separate.HTM.CapacityAborts {
		t.Fatalf("shared-core capacity aborts (%d) not above separate-core (%d)",
			shared.HTM.CapacityAborts, separate.HTM.CapacityAborts)
	}
}
