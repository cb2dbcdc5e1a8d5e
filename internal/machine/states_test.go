package machine

import (
	"fmt"
	"testing"

	"seer/internal/topology"
)

// checkStates recomputes the engine's schedule-state invariants by brute
// force, at a tick hook:
//
//  1. every thread is in exactly one known state, and a thread with no
//     live body (idle or done) is runnable, as is the running thread;
//  2. a live thread has a queued event exactly when it is runnable,
//     polling, acquiring, replaying or a bounded parked thread — except
//     the thread being delivered, whose event the loop has just popped
//     (the running thread, or with none running, one thread at most);
//  3. wakeable equals the set of parked threads;
//  4. the deadlock verdict holds exactly when the queue is empty and a
//     thread is parked;
//  5. a polling thread is a delegated acquire (acq set): a wake queues a
//     plain waiter runnable, to run its own poll.
func checkStates(e *Engine) error {
	var parkedSet topology.Set
	delivered := e.running != nil
	for _, t := range e.threads {
		if t.state > replaying {
			return fmt.Errorf("thread %d: unknown state %d", t.id, t.state)
		}
		if t.state == parked {
			parkedSet.Add(t.id)
		}
		if t.state == polling && !t.acq {
			return fmt.Errorf("thread %d: polling without a delegated acquire", t.id)
		}
		if t.next == nil || t == e.running {
			if t.state != runnable {
				return fmt.Errorf("thread %d: state %d while idle, done or running", t.id, t.state)
			}
			continue
		}
		queued := e.queue.leaf[t.id>>3][t.id&7] != 0
		if want := t.state != parked || t.parkPolls > 0; queued != want {
			if !delivered && want {
				delivered = true // the one thread whose event was just popped
				continue
			}
			return fmt.Errorf("thread %d: state %d with queued event = %v", t.id, t.state, queued)
		}
	}
	if e.wakeable != parkedSet {
		return fmt.Errorf("wakeable %v, parked threads %v", e.wakeable, parkedSet)
	}
	if want := e.queue.empty() && !parkedSet.Empty(); e.deadlocked() != want {
		return fmt.Errorf("deadlock verdict %v with queue empty = %v and parked threads %v",
			e.deadlocked(), e.queue.empty(), parkedSet)
	}
	return nil
}

// watchStates installs a tick hook on e that calls inner (when non-nil)
// and then checkStates at every scheduling step. Hooks run inside the
// simulated threads' coroutines, where a test may not fail, so the first
// violation is kept; the returned verify reports it.
func watchStates(t testing.TB, e *Engine, inner func(now uint64)) (verify func()) {
	var first error
	e.SetTickHook(func(now uint64) {
		if inner != nil {
			inner(now)
		}
		if first == nil {
			if err := checkStates(e); err != nil {
				first = fmt.Errorf("at cycle %d: %w", now, err)
			}
		}
	})
	return func() {
		t.Helper()
		if first != nil {
			t.Fatalf("schedule-state invariant broken %v", first)
		}
	}
}
