package stamp

import (
	"errors"
	"testing"

	"seer"
)

// TestLabyrinthQueueTooSmall: an undersized request queue is a named,
// wrapped error from Setup — not a panic.
func TestLabyrinthQueueTooSmall(t *testing.T) {
	w := NewLabyrinth(0.1)
	w.queueSlots = w.totalOps / 2
	_, _, err := Run(w, Config(w, 1, seer.Topology{}))
	if err == nil {
		t.Fatal("undersized queue accepted")
	}
	if !errors.Is(err, ErrQueueTooSmall) {
		t.Fatalf("error %v does not wrap ErrQueueTooSmall", err)
	}
}

// TestLabyrinthQueueDefaultSufficient: the default sizing always holds
// every pre-planned request.
func TestLabyrinthQueueDefaultSufficient(t *testing.T) {
	w := NewLabyrinth(0.1)
	if _, _, err := Run(w, Config(w, 1, seer.Topology{})); err != nil {
		t.Fatal(err)
	}
}
