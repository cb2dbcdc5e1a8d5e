package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"seer"
)

// gridSpecs returns a small mixed grid that exercises several policies
// and thread counts cheaply.
func gridSpecs() []Spec {
	var specs []Spec
	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer} {
		for _, th := range []int{1, 2, 4} {
			specs = append(specs, Spec{
				Workload: "hashmap", Scale: 0.05, Policy: pol,
				Threads: th, Runs: 1, Seed: 7,
			})
		}
	}
	return specs
}

// TestRunGridParallelMatchesSequential: results and the streamed progress
// transcript must be identical at any worker count.
func TestRunGridParallelMatchesSequential(t *testing.T) {
	specs := gridSpecs()
	run := func(parallel int) ([]Result, string) {
		var log strings.Builder
		res, err := RunGrid(Options{Parallel: parallel}, specs, func(i int, r Result) {
			fmt.Fprintf(&log, "%d:%s/%d=%d\n", i, r.Spec.Policy, r.Spec.Threads, r.Reports[0].MakespanCycles)
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res, log.String()
	}
	seqRes, seqLog := run(1)
	for _, workers := range []int{2, 4, -1} {
		parRes, parLog := run(workers)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("parallel=%d results differ from sequential", workers)
		}
		if parLog != seqLog {
			t.Fatalf("parallel=%d progress transcript differs:\nseq:\n%s\npar:\n%s", workers, seqLog, parLog)
		}
	}
	// The transcript must also be in index order with every cell present.
	for i := range specs {
		if !strings.Contains(seqLog, fmt.Sprintf("%d:", i)) {
			t.Fatalf("cell %d missing from transcript:\n%s", i, seqLog)
		}
	}
}

// TestRunGridRecycledReplicasMatchFresh: RunGrid builds each cell on its
// worker's recycled simulator replica; RunOne builds a fresh system every
// time. On a wide multi-socket shape — where the recycled registry lines
// carry multi-word reader sets — both paths must produce identical
// Results. Run under -race this
// also proves no engine state crosses worker goroutines.
func TestRunGridRecycledReplicasMatchFresh(t *testing.T) {
	wide := seer.Topology{Sockets: 2, CoresPerSocket: 8, ThreadsPerCore: 2}
	var specs []Spec
	for _, pol := range []seer.PolicyKind{seer.PolicyRTM, seer.PolicySeer} {
		for _, th := range []int{8, 32} {
			specs = append(specs, Spec{
				Workload: "hashmap", Scale: 0.05, Policy: pol,
				Threads: th, Runs: 2, Seed: 11, Topology: wide,
			})
		}
	}
	fresh := make([]Result, len(specs))
	for i, sp := range specs {
		res, err := RunOne(sp)
		if err != nil {
			t.Fatalf("fresh cell %d: %v", i, err)
		}
		fresh[i] = res
	}
	for _, workers := range []int{1, 4} {
		got, err := RunGrid(Options{Parallel: workers}, specs, nil)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Fatalf("parallel=%d: recycled-replica results differ from fresh systems", workers)
		}
	}
}

// TestRunGridFirstErrorByIndex: with several failing cells, the reported
// error must be the lowest-indexed one regardless of completion order.
func TestRunGridFirstErrorByIndex(t *testing.T) {
	specs := []Spec{
		{Workload: "hashmap", Scale: 0.05, Policy: seer.PolicyRTM, Threads: 1, Runs: 1, Seed: 1},
		{Workload: "no-such-workload-a", Scale: 0.05, Policy: seer.PolicyRTM, Threads: 1, Runs: 1, Seed: 1},
		{Workload: "no-such-workload-b", Scale: 0.05, Policy: seer.PolicyRTM, Threads: 1, Runs: 1, Seed: 1},
	}
	for _, workers := range []int{1, 3} {
		_, err := RunGrid(Options{Parallel: workers}, specs, nil)
		if err == nil || !strings.Contains(err.Error(), "no-such-workload-a") {
			t.Fatalf("parallel=%d: err = %v, want first failing index (workload a)", workers, err)
		}
	}
}

// TestRunGridStopsAtFirstError: at every width, progress reports only the
// cells before the first failing index, as a sequential sweep would, and
// at width 1 no cell after the failure runs.
func TestRunGridStopsAtFirstError(t *testing.T) {
	ok := Spec{Workload: "hashmap", Scale: 0.05, Policy: seer.PolicyRTM, Threads: 1, Runs: 1, Seed: 1}
	bad := ok
	bad.Workload = "no-such-workload"
	specs := []Spec{ok, bad, ok, ok, ok}
	for _, workers := range []int{1, 3} {
		var reported []int
		res, err := RunGrid(Options{Parallel: workers}, specs, func(i int, _ Result) { reported = append(reported, i) })
		if err == nil || !reflect.DeepEqual(reported, []int{0}) {
			t.Fatalf("parallel=%d: err = %v, progress for cells %v, want an error and cell 0 only", workers, err, reported)
		}
		if workers == 1 && res[2].MeanMakespan != 0 {
			t.Fatal("parallel=1: a cell after the failing one ran")
		}
	}
}
