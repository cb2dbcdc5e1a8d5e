// Quickstart: a payment-processing workload with two kinds of atomic
// blocks — hot inter-bank settlements that conflict constantly, and
// independent per-customer ledger updates that almost never do. Under
// plain RTM, settlements exhaust their hardware retries and grab the
// single-global lock, stalling every customer update too. Seer infers
// that only settlements conflict (with each other) and serializes just
// them through one fine-grained lock, letting customer traffic run.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"seer"
)

const (
	nThreads    = 8
	nSettlement = 20  // settlements sample 4 of these: heavy partial overlap
	nCustomers  = 512 // cold accounts: updates almost never collide
	opsPerThr   = 400
	initial     = 10_000
)

// Atomic-block ids (the "static transactions" Seer reasons about).
const (
	txSettle = 0
	txLedger = 1
)

func run(policy seer.PolicyKind) seer.Report {
	cfg := seer.DefaultConfig()
	cfg.Policy = policy
	cfg.Threads = nThreads
	cfg.NumAtomicBlocks = 2
	cfg.MemWords = 1 << 16
	sys, err := seer.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}

	settle := sys.AllocLines(nSettlement)
	ledger := sys.AllocLines(nCustomers)
	settleAcct := func(i int) seer.Addr { return settle + seer.Addr(i*8) }
	custAcct := func(i int) seer.Addr { return ledger + seer.Addr(i*8) }
	for i := 0; i < nSettlement; i++ {
		sys.Poke(settleAcct(i), initial)
	}

	workers := make([]seer.Worker, nThreads)
	for w := range workers {
		workers[w] = func(t *seer.Thread) {
			rng := t.Rand()
			for n := 0; n < opsPerThr; n++ {
				if rng.Bool(0.9) {
					// Hot: sample four settlement accounts, move money
					// out of the richest. Reads happen up front, the
					// write at the end — the read set is live for the
					// whole transaction (as in any real reservation).
					var picks [4]int
					for i := range picks {
						picks[i] = rng.Intn(nSettlement)
					}
					to := rng.Intn(nSettlement)
					amount := uint64(rng.Intn(50))
					t.Atomic(txSettle, func(a seer.Access) {
						best, bestBal := picks[0], uint64(0)
						for _, p := range picks {
							if bal := a.Load(settleAcct(p)); bal > bestBal {
								best, bestBal = p, bal
							}
						}
						a.Work(110) // netting, compliance checks
						if bestBal >= amount {
							a.Store(settleAcct(best), bestBal-amount)
							a.Store(settleAcct(to), a.Load(settleAcct(to))+amount)
						}
					})
				} else {
					// Cold: update one customer's ledger entry.
					c := rng.Intn(nCustomers)
					t.Atomic(txLedger, func(a seer.Access) {
						v := a.Load(custAcct(c))
						a.Work(60) // interest accrual
						a.Store(custAcct(c), v+1)
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

	// Money is conserved under every policy — atomicity is the HTM's
	// job; Seer only schedules.
	var total uint64
	for i := 0; i < nSettlement; i++ {
		total += sys.Peek(settleAcct(i))
	}
	if total != nSettlement*initial {
		log.Fatalf("%s lost money: %d != %d", policy, total, nSettlement*initial)
	}
	return rep
}

func main() {
	fmt.Println("Payment processing: 8 threads, hot settlements (90%) + cold ledger updates (10%)")
	rtm := run(seer.PolicyRTM)
	srr := run(seer.PolicySeer)
	for _, rep := range []seer.Report{rtm, srr} {
		fmt.Printf("\n%s", rep.String())
	}
	fmt.Printf("\nSeer speedup over RTM: %.2fx (virtual makespan %d vs %d cycles)\n",
		float64(rtm.MakespanCycles)/float64(srr.MakespanCycles),
		srr.MakespanCycles, rtm.MakespanCycles)
	if s := srr.Seer; s != nil {
		fmt.Printf("Inferred lock scheme: settle->%v ledger->%v\n",
			s.SchemeRows[txSettle], s.SchemeRows[txLedger])
	}
}
