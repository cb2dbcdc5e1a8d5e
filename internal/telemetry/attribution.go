package telemetry

import (
	"sort"

	"seer/internal/htm"
	"seer/internal/mem"
)

// Outcome classifies how an attempt span ended.
type Outcome uint8

// Span outcomes.
const (
	OutcomeCommit   Outcome = iota // transaction attempt committed
	OutcomeAbort                   // transaction attempt aborted
	OutcomeFallback                // single-global-lock software path
)

// String returns the outcome's mnemonic.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommit:
		return "commit"
	case OutcomeAbort:
		return "abort"
	default:
		return "sgl"
	}
}

// NoLine marks a span without an attributed conflict line.
const NoLine = ^uint32(0)

// MaxCascadeDepth caps the cascade-depth histogram; deeper chains fold
// into the last bucket.
const MaxCascadeDepth = 15

// Span is one transaction attempt (or one fall-back execution). Abort
// spans carry the ground-truth attribution captured when the conflict
// registry doomed the victim — the record real HTM never exposes;
// AborterHW is -1 for aborts with no attributable requester (capacity,
// spurious, explicit, or a doom issued outside any atomic block).
type Span struct {
	Begin, End uint64
	HW, Block  int16
	// Retry is the attempt index within the atomic-block episode
	// (0 = first attempt).
	Retry   uint8
	Outcome Outcome
	// Status is the raw HTM status word of an abort span (0 otherwise).
	Status uint32
	// AborterHW/AborterBlock identify the access that doomed this
	// attempt (-1 when unattributed).
	AborterHW, AborterBlock int16
	// Line is the conflicting cache line (NoLine when unattributed).
	Line uint32
	// Depth is the abort's cascade depth: 0 for a root abort, d+1 when
	// the aborter was itself retrying after an abort of depth d.
	Depth uint16
}

// pending is the doom-time attribution parked until the victim observes
// its abort and closes the span (the victim notices asynchronously, at
// its next instruction boundary, so the clash point cannot stamp the
// span's end cycle itself).
type pending struct {
	aborterHW    int16
	aborterBlock int16
	line         uint32
	depth        uint16
	valid        bool
}

// attribution is the ground-truth attribution sink's accumulators; the
// per-thread episode state it works from lives in the Thread handles.
type attribution struct {
	nBlocks int

	// truth is the ground-truth conflict matrix: truth[victim*n+aborter]
	// counts dooms of an attempt of block victim by an access of block
	// aborter, excluding ignored lines.
	truth []uint64
	// causeBlock[cause*n+block] counts aborts by cause per victim block.
	causeBlock []uint64
	// cascadeHist[d] counts aborts of cascade depth d (capped).
	cascadeHist [MaxCascadeDepth + 1]uint64
	// lineConflicts counts dooms per conflicting cache line.
	lineConflicts map[uint32]uint64
	// attributed counts aborts that consumed a doom-time attribution.
	attributed uint64

	ignored map[uint32]bool
}

func newAttribution(o Options) *attribution {
	a := &attribution{
		nBlocks:       o.Blocks,
		truth:         make([]uint64, o.Blocks*o.Blocks),
		causeBlock:    make([]uint64, NumCauses*o.Blocks),
		lineConflicts: make(map[uint32]uint64),
		ignored:       make(map[uint32]bool, len(o.IgnoredLines)),
	}
	for _, ln := range o.IgnoredLines {
		a.ignored[uint32(ln)] = true
	}
	return a
}

// span builds the thread's open span closed at now, unattributed.
func (t *Thread) span(now uint64, o Outcome) Span {
	return Span{
		Begin: t.begin, End: now, HW: t.hw, Block: t.block, Retry: t.retry,
		Outcome: o, AborterHW: -1, AborterBlock: -1, Line: NoLine,
	}
}

// closeAttempt ends the open attempt with the given outcome and status,
// feeding the span and attribution sinks when they are on.
func (t *Thread) closeAttempt(now uint64, o Outcome, status htm.Status) {
	t.inAttempt = false
	a := t.rec.attr
	if a == nil {
		t.retry++
		return
	}
	sp := t.span(now, o)
	t.retry++
	if o == OutcomeAbort {
		sp.Status = uint32(status)
		if p := &t.pend; p.valid {
			p.valid = false
			sp.AborterHW, sp.AborterBlock, sp.Line, sp.Depth = p.aborterHW, p.aborterBlock, p.line, p.depth
			a.attributed++
			t.log(now, EvDoom, true, sp.Line, PackAborter(p.aborterHW, p.aborterBlock))
		}
		t.lastDepth = sp.Depth
		a.cascadeHist[min(sp.Depth, MaxCascadeDepth)]++
		if sp.Block >= 0 {
			a.causeBlock[int(status.Cause())*a.nBlocks+int(sp.Block)]++
		}
	}
	if t.rec.opt.Spans {
		t.spans = append(t.spans, sp)
	}
}

// OnDoom is the HTM's doom hook: the access of hardware thread aborter
// has doomed the transaction of hardware thread victim on cache line ln.
// It is recorder-level rather than a handle method because it fires at
// the conflict registry's clash point, on the aborter's turn, and must
// read both threads' episode state. It parks the attribution for the
// victim's abort span and, when the victim is inside a policy-level
// attempt and the line is not ignored, feeds the ground-truth conflict
// matrix, the hot-line ranking and the cascade chain.
func (r *Recorder) OnDoom(victim, aborter int, ln mem.Line) {
	a, v := r.attr, &r.threads[victim]
	p := pending{aborterHW: -1, aborterBlock: -1, line: uint32(ln), valid: true}
	if aborter >= 0 {
		ab := &r.threads[aborter]
		p.aborterHW, p.aborterBlock = ab.hw, ab.block
		if ab.aborted {
			// The aborter is retrying after its own abort: this doom
			// extends that blame chain.
			p.depth = ab.lastDepth + 1
		}
	}
	v.pend = p
	if !v.inAttempt || a.ignored[p.line] {
		// Dooms of scheduler-internal transactions (Seer's multi-CAS lock
		// acquisition) and conflicts on ignored lines attribute the span
		// but do not describe workload data conflicts.
		return
	}
	if v.block >= 0 && p.aborterBlock >= 0 {
		a.truth[int(v.block)*a.nBlocks+int(p.aborterBlock)]++
	}
	a.lineConflicts[p.line]++
}

// --- Read-only views ---

// attribution returns the attribution sink (nil when off).
func (r *Recorder) attribution() *attribution {
	if r == nil {
		return nil
	}
	return r.attr
}

// Spans returns hardware thread hw's retained spans in chronological
// order (nil when span retention is off). The slice is borrowed, not
// copied: it is valid until the next BeginRun or Release, after which the
// next Run, or the next recorder built on the same Buffers, overwrites it.
func (r *Recorder) Spans(hw int) []Span {
	if r == nil || !r.opt.Spans {
		return nil
	}
	return r.threads[hw].spans
}

// TruthMatrix returns the flat victim-major ground-truth conflict matrix,
// Blocks×Blocks (borrowed; nil when attribution is off).
func (r *Recorder) TruthMatrix() []uint64 {
	if a := r.attribution(); a != nil {
		return a.truth
	}
	return nil
}

// TopPairs returns the k heaviest ground-truth conflict edges (all of
// them for k ≤ 0), sorted by count descending, then victim, then aborter.
func (r *Recorder) TopPairs(k int) []PairCount {
	a := r.attribution()
	if a == nil {
		return nil
	}
	slots := a.nBlocks * a.nBlocks
	if k > 0 {
		slots = min(slots, k)
	}
	if out := a.rankPairs(nil, make([]PairCount, slots)); len(out) > 0 {
		return out
	}
	return nil
}

// rankPairs fills top with the heaviest conflict edges by count, taken
// against prev (the cumulative matrix itself when prev is nil), and
// returns the filled prefix: insertion into len(top) slots, count
// descending, ties keeping (victim, aborter) scan order.
func (a *attribution) rankPairs(prev []uint64, top []PairCount) []PairCount {
	used := 0
	n := a.nBlocks
	for v := 0; v < n; v++ {
		for ab := 0; ab < n; ab++ {
			d := a.truth[v*n+ab]
			if prev != nil {
				d -= prev[v*n+ab]
			}
			if d == 0 {
				continue
			}
			i := used
			if i < len(top) {
				used++
			} else if top[i-1].Count >= d {
				continue
			} else {
				i--
			}
			for i > 0 && top[i-1].Count < d {
				top[i] = top[i-1]
				i--
			}
			top[i] = PairCount{Victim: v, Aborter: ab, Count: d}
		}
	}
	return top[:used]
}

// LineCount is one cache line with its conflict (doom) count.
type LineCount struct {
	Line  uint32 `json:"line"`
	Count uint64 `json:"count"`
}

// TopLines returns the k hottest conflicting cache lines (all of them for
// k ≤ 0), sorted by count descending then line ascending.
func (r *Recorder) TopLines(k int) []LineCount {
	a := r.attribution()
	if a == nil {
		return nil
	}
	out := make([]LineCount, 0, len(a.lineConflicts))
	for ln, w := range a.lineConflicts {
		out = append(out, LineCount{Line: ln, Count: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Line < out[j].Line
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
