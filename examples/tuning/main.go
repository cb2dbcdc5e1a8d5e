// tuning: watch Seer's stochastic hill climber adapt the inference
// thresholds Θ₁/Θ₂ online. The workload alternates between a contended
// phase (where aggressive serialization pays) and a calm phase (where any
// serialization is pure loss); the tuner's trajectory and the resulting
// lock scheme are printed after each phase.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"seer"
)

const (
	nThreads = 8
	slots    = 4
)

func main() {
	cfg := seer.DefaultConfig()
	cfg.Policy = seer.PolicySeer
	cfg.Threads = nThreads
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 14
	cfg.Seer.EpochExecs = 600 // faster epochs: this demo is short
	cfg.Seer.UpdateEvery = 200
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hot := sys.AllocLines(slots)
	cold := sys.AllocLines(256)

	phase := func(contended bool, opsPerThread int) seer.Report {
		workers := make([]seer.Worker, nThreads)
		for w := range workers {
			workers[w] = func(t *seer.Thread) {
				rng := t.Rand()
				for n := 0; n < opsPerThread; n++ {
					if contended {
						s := rng.Intn(slots)
						t.Atomic(0, func(a seer.Access) {
							addr := hot + seer.Addr(s*8)
							v := a.Load(addr)
							a.Work(120)
							a.Store(addr, v+1)
						})
					} else {
						c := rng.Intn(256)
						t.Atomic(1, func(a seer.Access) {
							addr := cold + seer.Addr(c*8)
							a.Store(addr, a.Load(addr)+1)
							a.Work(40)
						})
					}
					t.Work(uint64(5 + rng.Intn(11)))
				}
			}
		}
		rep, err := sys.Run(workers)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	fmt.Println("Phase 1: contended (4 hot slots, long transactions)")
	rep := phase(true, 700)
	show(sys, rep)

	fmt.Println("\nPhase 2: calm (256 cold slots)")
	rep = phase(false, 700)
	show(sys, rep)

	fmt.Println("\nPhase 3: contended again")
	rep = phase(true, 700)
	show(sys, rep)
}

func show(sys *seer.System, rep seer.Report) {
	s := rep.Seer
	fmt.Printf("  thresholds now Θ₁=%.3f Θ₂=%.3f, %d scheme updates in this phase\n",
		s.Thresholds.Th1, s.Thresholds.Th2, s.SchemeUpdates)
	fmt.Printf("  scheme: hot->%v cold->%v  lock acquisitions in this phase: %d\n",
		s.SchemeRows[0], s.SchemeRows[1], s.LockAcqEvents)
	fmt.Printf("  modes: HTM %.1f%%  +locks %.1f%%  SGL %.1f%%\n",
		rep.ModeFractions()[seer.ModeHTM],
		rep.ModeFractions()[seer.ModeHTMTx]+rep.ModeFractions()[seer.ModeHTMTxCore]+rep.ModeFractions()[seer.ModeHTMCore],
		rep.ModeFractions()[seer.ModeSGL])
	if tuner := sys.Scheduler().Tuner(); tuner != nil {
		best, val := tuner.Best()
		fmt.Printf("  tuner: %d moves, best (%.2f, %.2f) at %.4f commits/cycle\n",
			tuner.Moves(), best.Th1, best.Th2, val)
	}
}
