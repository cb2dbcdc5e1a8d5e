package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"seer"
)

// The experiment grids are embarrassingly parallel: every Spec builds its
// own simulated machine from its own seed, shares no mutable state with
// any other cell, and produces a deterministic Result. RunGrid is the one
// fan-out point all exhibits go through, so a single -parallel flag
// accelerates every experiment while keeping output bit-identical to a
// sequential sweep.

// Workers resolves the executor width: 0 and 1 mean one worker, negative
// means one worker per available CPU, and anything larger is clamped to
// the number of cells by RunGrid.
func (o Options) workers() int {
	if o.Parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

// RunGrid executes the specs as independent cells on a worker pool of
// opt.Parallel goroutines and returns the results indexed like specs.
//
// Determinism: every cell's Result depends only on its Spec (fresh system,
// fresh seed, no shared state), so the returned slice is identical
// whatever the worker count or completion order. The progress callback is
// invoked in strictly increasing index order — a cell's callback fires
// only once all lower-indexed cells have completed — so streamed progress
// output is also byte-identical with and without parallelism.
//
// On error, the first failing index (not the first to fail in wall-clock
// order) determines the returned error, again for determinism. Once a
// cell fails no worker claims another, and progress stops before the
// first failing index, as in a sequential sweep: cells are claimed in
// index order, so every cell below a failure still completes.
func RunGrid(opt Options, specs []Spec, progress func(i int, res Result)) ([]Result, error) {
	if !opt.Topology.IsZero() {
		specs = append([]Spec(nil), specs...)
		for i := range specs {
			if specs[i].Topology.IsZero() {
				specs[i].Topology = opt.Topology
			}
		}
	}
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	workers := opt.workers()
	if workers > len(specs) {
		workers = len(specs)
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool // a cell failed: claim no more
		wg      sync.WaitGroup
		mu      sync.Mutex // guards done/emitted and orders progress calls
		done    = make([]bool, len(specs))
		emitted int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns a full simulator replica: every cell it
			// runs is built on its private recycled buffers, so no
			// mutable engine state — not even a freed buffer — crosses
			// worker goroutines, and the multi-megabyte per-cell state
			// is allocated once per worker rather than once per cell.
			rec := new(seer.Recycler)
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				res, err := runOneWith(specs[i], rec)
				results[i], errs[i] = res, err
				if err != nil {
					failed.Store(true)
				}
				mu.Lock()
				done[i] = true
				for emitted < len(specs) && done[emitted] && errs[emitted] == nil {
					if progress != nil {
						progress(emitted, results[emitted])
					}
					emitted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
