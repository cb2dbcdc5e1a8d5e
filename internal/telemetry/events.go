package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Kind classifies events of the bounded event log.
type Kind uint8

// Event kinds.
const (
	EvBegin    Kind = iota // transaction attempt started
	EvCommit               // transaction attempt committed
	EvAbort                // transaction attempt aborted: Detail=status word
	EvFallback             // single-global-lock path taken
	EvLockAcq              // scheduler lock acquired: Detail=lock id, Detail2=LockKind
	EvLockRel              // scheduler locks released: Detail=id or batch size, Detail2=LockKind
	EvWait                 // cooperative wait started: Detail=LockKind
	EvScheme               // locking scheme recomputed: Detail=pair count
	EvTune                 // thresholds re-tuned: Detail/Detail2=Θ₁/Θ₂ as float32 bits
	EvDoom                 // abort attributed: Detail=conflicting line, Detail2=packed aborter hw/block
	EvPhase                // phased-TM mode transition: Detail=new mode, Detail2=old mode
)

// kindNames are the mnemonics of the defined kinds, indexed by Kind.
var kindNames = [...]string{
	"begin", "commit", "abort", "fallback", "lock+", "lock-", "wait", "scheme", "tune", "doom", "phase",
}

// String returns the event kind's mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one entry of the event log.
type Event struct {
	Cycle   uint64 // virtual time
	HW      int16  // hardware thread
	Kind    Kind
	TxID    int16  // atomic block (-1 when not applicable)
	Detail  uint32 // kind-specific payload (abort status, lock id, ...)
	Detail2 uint32 // second payload (see the kind's comment)
}

// String renders an event as one log line.
func (e Event) String() string {
	s := fmt.Sprintf("%10d t%-2d %-8s tx=%-3d detail=%#x",
		e.Cycle, e.HW, e.Kind, e.TxID, e.Detail)
	if e.Detail2 != 0 {
		s += fmt.Sprintf(" detail2=%#x", e.Detail2)
	}
	return s
}

// PackAborter encodes an aborter (hardware thread, atomic block) as the
// Detail2 payload of an EvDoom event; UnpackAborter decodes it.
func PackAborter(hw, block int16) uint32 {
	return uint32(uint16(hw))<<16 | uint32(uint16(block))
}

// UnpackAborter decodes an EvDoom Detail2 payload.
func UnpackAborter(d uint32) (hw, block int16) {
	return int16(d >> 16), int16(d & 0xFFFF)
}

// ring is the event-log sink: a bounded buffer retaining the most recent
// events. With no capacity (Options.RingCapacity 0) add is a no-op.
type ring struct {
	events []Event
	next   int
	wrap   bool
	total  uint64
}

func (l *ring) add(e Event) {
	if len(l.events) == 0 {
		return
	}
	l.events[l.next] = e
	l.next++
	l.total++
	if l.next == len(l.events) {
		l.next = 0
		l.wrap = true
	}
}

// Events returns a copy of the retained events in chronological order
// (nil when the event log is off). The ring itself is recycled storage, so
// the copy must be taken before Release; once taken it is the caller's.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.ring.events) == 0 {
		return nil
	}
	l := &r.ring
	if !l.wrap {
		return append([]Event(nil), l.events[:l.next]...)
	}
	out := make([]Event, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	return append(out, l.events[:l.next]...)
}

// EventTotal returns the number of events logged in this Run, evicted
// ones included.
func (r *Recorder) EventTotal() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.total
}

// DumpEvents writes events to w one per line, optionally filtered by kind
// (pass nil for all).
func DumpEvents(w io.Writer, events []Event, kinds map[Kind]bool) {
	for _, e := range events {
		if kinds == nil || kinds[e.Kind] {
			fmt.Fprintln(w, e.String())
		}
	}
}

// SummarizeEvents returns per-kind counts over events.
func SummarizeEvents(events []Event) map[Kind]int {
	out := map[Kind]int{}
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// FormatSummary renders SummarizeEvents in ascending kind order. It walks
// the kinds actually present rather than the defined range, so kinds added
// later are never dropped.
func FormatSummary(events []Event) string {
	s := SummarizeEvents(events)
	kinds := make([]Kind, 0, len(s))
	for k := range s {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%s=%d ", k, s[k])
	}
	return strings.TrimSpace(b.String())
}

// ParseKinds parses a comma-separated list of kind mnemonics (as printed
// by Kind.String, e.g. "abort,lock+") into a DumpEvents filter set. An
// empty spec returns nil (no filtering).
func ParseKinds(spec string) (map[Kind]bool, error) {
	var out map[Kind]bool
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k := 0
		for k < len(kindNames) && kindNames[k] != name {
			k++
		}
		if k == len(kindNames) {
			return nil, fmt.Errorf("telemetry: unknown event kind %q (known: %s)", name, strings.Join(kindNames[:], ","))
		}
		if out == nil {
			out = map[Kind]bool{}
		}
		out[Kind(k)] = true
	}
	return out, nil
}
