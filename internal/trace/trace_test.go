// Package trace_test is the event-log battery of internal/telemetry. The
// package it was written for (internal/trace) is merged into telemetry;
// the tests stay at this path, as an external test package with no
// non-test code beside it, so their identities in the test floor are
// unchanged.
package trace_test

import (
	"strings"
	"testing"
	"testing/quick"

	"seer/internal/htm"
	. "seer/internal/telemetry"
)

// newLog builds a recorder with only the event log on, for threads
// hardware threads.
func newLog(capacity, threads int) *Recorder {
	return New(Options{Threads: threads, RingCapacity: capacity})
}

func TestNilLogIsNoOp(t *testing.T) {
	var r *Recorder
	r.Thread(2).AttemptBegin(1) // must not panic
	if r.EventTotal() != 0 || r.Events() != nil {
		t.Fatalf("nil recorder retained events")
	}
	// A recorder whose event log is off retains nothing either.
	off := New(Options{Threads: 1, Interval: 100})
	off.Thread(0).AttemptBegin(1)
	if off.EventTotal() != 0 || off.Events() != nil {
		t.Fatalf("event log off, yet events retained")
	}
}

func TestChronologicalOrder(t *testing.T) {
	l := newLog(8, 1)
	for i := 0; i < 5; i++ {
		l.Thread(0).AttemptBegin(uint64(i * 10))
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("out of order at %d: %v", i, evs)
		}
	}
}

func TestRingEviction(t *testing.T) {
	l := newLog(4, 1)
	for i := 0; i < 10; i++ {
		l.Thread(0).AttemptCommit(uint64(i))
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	if evs[0].Cycle != 6 || evs[3].Cycle != 9 {
		t.Fatalf("wrong window: %v", evs)
	}
	if l.EventTotal() != 10 {
		t.Fatalf("total = %d, want 10", l.EventTotal())
	}
}

func TestSummaryAndDump(t *testing.T) {
	l := newLog(16, 1)
	h := l.Thread(0)
	h.BlockEnter(0)
	h.AttemptBegin(1)
	h.AttemptAbort(2, htm.BitExplicit)
	h.AttemptBegin(3)
	h.AttemptCommit(4)
	evs := l.Events()
	s := SummarizeEvents(evs)
	if s[EvBegin] != 2 || s[EvAbort] != 1 || s[EvCommit] != 1 {
		t.Fatalf("summary = %v", s)
	}
	if fs := FormatSummary(evs); !strings.Contains(fs, "begin=2") {
		t.Fatalf("FormatSummary = %q", fs)
	}
	var b strings.Builder
	DumpEvents(&b, evs, map[Kind]bool{EvAbort: true})
	out := b.String()
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "abort") {
		t.Fatalf("filtered dump wrong:\n%s", out)
	}
	// The abort event carries the block and the raw status word.
	if e := evs[1]; e.Kind != EvAbort || e.TxID != 0 || e.Detail != uint32(htm.BitExplicit) {
		t.Fatalf("abort event = %+v", e)
	}
}

func TestKindStrings(t *testing.T) {
	for k := EvBegin; k <= EvPhase; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("kind %d missing mnemonic", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Fatalf("unknown kind must render numerically")
	}
}

// TestQuickRingInvariant: the retained window is always the last
// min(total, capacity) events in order.
func TestQuickRingInvariant(t *testing.T) {
	f := func(cap8 uint8, n uint16) bool {
		capacity := int(cap8%32) + 1
		l := newLog(capacity, 1)
		for i := 0; i < int(n%500); i++ {
			l.Thread(0).AttemptBegin(uint64(i))
		}
		evs := l.Events()
		total := int(n % 500)
		want := total
		if want > capacity {
			want = capacity
		}
		if len(evs) != want {
			return false
		}
		for i, e := range evs {
			if e.Cycle != uint64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFutureKindRetained: SummarizeEvents and FormatSummary must count
// kinds that do not exist yet (added by later versions) instead of
// dropping them.
func TestFutureKindRetained(t *testing.T) {
	future := Kind(99)
	evs := []Event{{Cycle: 1, Kind: EvBegin}, {Cycle: 2, Kind: future}}
	if s := SummarizeEvents(evs); s[future] != 1 {
		t.Fatalf("future kind dropped from the summary: %v", s)
	}
	fs := FormatSummary(evs)
	if !strings.Contains(fs, "kind(99)=1") {
		t.Fatalf("future kind missing from FormatSummary: %q", fs)
	}
	// Stable order: known kinds sort before the future one.
	if strings.Index(fs, "begin=1") > strings.Index(fs, "kind(99)=1") {
		t.Fatalf("FormatSummary order unstable: %q", fs)
	}
}

// TestRecord2Detail2: events with a second payload keep both and render
// it; events without one do not print a zero detail2.
func TestRecord2Detail2(t *testing.T) {
	l := newLog(4, 2)
	l.Thread(1).Phase(7, 0xAAAA, 0xBBBB)
	evs := l.Events()
	if len(evs) != 1 || evs[0].Kind != EvPhase || evs[0].TxID != -1 ||
		evs[0].Detail != 0xAAAA || evs[0].Detail2 != 0xBBBB {
		t.Fatalf("two-payload event round-trip failed: %+v", evs)
	}
	if !strings.Contains(evs[0].String(), "detail2=0xbbbb") {
		t.Fatalf("String omits detail2: %q", evs[0].String())
	}
	l.Thread(1).AttemptCommit(8)
	if s := l.Events()[1].String(); strings.Contains(s, "detail2") {
		t.Fatalf("String shows zero detail2: %q", s)
	}
}

// TestWideHWThreadIDs: HW is int16, so hardware thread ids beyond int8's
// range must survive.
func TestWideHWThreadIDs(t *testing.T) {
	l := newLog(2, 301)
	l.Thread(300).AttemptBegin(1)
	if hw := l.Events()[0].HW; hw != 300 {
		t.Fatalf("HW = %d, want 300", hw)
	}
}

func TestParseKinds(t *testing.T) {
	m, err := ParseKinds("abort, lock+,tune")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || !m[EvAbort] || !m[EvLockAcq] || !m[EvTune] {
		t.Fatalf("ParseKinds = %v", m)
	}
	if m, err := ParseKinds(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	if m, err := ParseKinds(" , "); err != nil || m != nil {
		t.Fatalf("blank spec: %v, %v", m, err)
	}
	if _, err := ParseKinds("abort,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

// TestParseKindsEdges pins down the less obvious contract points:
// duplicates collapse, every known mnemonic round-trips (including doom,
// added with the attribution sink), names are case-sensitive, inner
// whitespace survives trimming, and the error names the known kinds.
func TestParseKindsEdges(t *testing.T) {
	if m, err := ParseKinds("abort,abort, abort "); err != nil || len(m) != 1 || !m[EvAbort] {
		t.Fatalf("duplicates must collapse: %v, %v", m, err)
	}
	for k := EvBegin; k <= EvPhase; k++ {
		m, err := ParseKinds(k.String())
		if err != nil || len(m) != 1 || !m[k] {
			t.Fatalf("mnemonic %q does not round-trip: %v, %v", k.String(), m, err)
		}
	}
	if m, err := ParseKinds("doom"); err != nil || !m[EvDoom] {
		t.Fatalf("doom not accepted: %v, %v", m, err)
	}
	if _, err := ParseKinds("Abort"); err == nil {
		t.Fatal("mnemonics must be case-sensitive")
	}
	if m, err := ParseKinds("\tabort ,\n lock+"); err != nil || len(m) != 2 || !m[EvAbort] || !m[EvLockAcq] {
		t.Fatalf("whitespace trimming: %v, %v", m, err)
	}
	if _, err := ParseKinds("nope"); err == nil || !strings.Contains(err.Error(), "doom") {
		t.Fatalf("error must list known kinds: %v", err)
	}
	if m, err := ParseKinds(",,,"); err != nil || m != nil {
		t.Fatalf("commas-only spec must be nil: %v, %v", m, err)
	}
}
