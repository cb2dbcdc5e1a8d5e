package machine

import (
	"fmt"
	"testing"

	"seer/internal/topology"
)

// checkStates recomputes the engine's schedule-state invariants by brute
// force, at a tick hook:
//
//  1. every thread is in exactly one known state with one known
//     continuation kind, and a thread with no live body (idle or done: no
//     coroutine, and not the host, whose body has none) is runnable, as
//     is the running thread;
//  2. a live thread has a queued event exactly when it is runnable,
//     polling, stepping, replaying or a bounded parked thread — except
//     the thread being delivered, whose event the loop has just popped
//     (the running thread, or with none running, one thread at most);
//  3. wakeable equals the set of parked threads;
//  4. the deadlock verdict holds exactly when the queue is empty and a
//     thread is parked;
//  5. a thread other than the running one is polling or stepping exactly
//     when it is suspended in a continuation and not parked: a wake queues
//     a plain waiter runnable, to run its own poll, a thread whose first
//     continuation tick closes a quantum sets the continuation only once
//     that tick returns, and a parked acquire has no deadline;
//  6. the herd set holds exactly the deferred threads (herdB set), each a
//     parked acquire continuation with no queued event whose word has not
//     been stored since the release that deferred it (untouched; nil
//     where no herd may form, as on an engine without lock-word ops).
func checkStates(e *Engine, untouched func(key uint64) bool) error {
	var parkedSet topology.Set
	delivered := e.running != nil
	for _, t := range e.threads {
		if t.state > replaying || t.cont > contProto {
			return fmt.Errorf("thread %d: unknown state %d or continuation %d", t.id, t.state, t.cont)
		}
		if t.state == parked {
			parkedSet.Add(t.id)
		}
		if t != e.running {
			if stepping := t.state == polling || t.state == stepping; stepping != (t.cont != contNone && t.state != parked) {
				return fmt.Errorf("thread %d: state %d in continuation %d", t.id, t.state, t.cont)
			}
			if t.state == parked && t.cont == contAcquire && t.parkDeadline != noDeadline {
				return fmt.Errorf("thread %d: parked acquire with a deadline", t.id)
			}
		}
		if deferred := t.herdB != 0; deferred != e.herd.Has(t.id) {
			return fmt.Errorf("thread %d: herdB %d, in the herd set = %v", t.id, t.herdB, !deferred)
		} else if deferred && (t.state != parked || t.cont != contAcquire || untouched == nil || !untouched(t.parkKey)) {
			return fmt.Errorf("thread %d: deferred in state %d (continuation %d) or on a stored word", t.id, t.state, t.cont)
		}
		if (t.next == nil && t != e.host) || t == e.running {
			if t.state != runnable {
				return fmt.Errorf("thread %d: state %d while idle, done or running", t.id, t.state)
			}
			continue
		}
		queued := e.queue.leaf[t.id>>3][t.id&7] != 0
		if want := t.state != parked || t.parkDeadline != noDeadline; queued != want {
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
// and then checkStates, with untouched, at every delivered tick. Hooks run
// inside the simulated threads' coroutines, where a test may not fail, so
// the first violation is kept; the returned verify reports it.
func watchStates(t testing.TB, e *Engine, inner func(now uint64), untouched func(key uint64) bool) (verify func()) {
	var first error
	e.SetTickHook(func(now uint64) uint64 {
		if inner != nil {
			inner(now)
		}
		if first == nil {
			if err := checkStates(e, untouched); err != nil {
				first = fmt.Errorf("at cycle %d: %w", now, err)
			}
		}
		return 0
	})
	return func() {
		t.Helper()
		if first != nil {
			t.Fatalf("schedule-state invariant broken %v", first)
		}
	}
}
