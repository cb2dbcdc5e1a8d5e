// Package txtrace_test is the attempt-span, attribution and
// inference-quality battery of internal/telemetry. The package it was
// written for (internal/txtrace) is merged into telemetry; the tests stay
// at this path, as an external test package with no non-test code beside
// it, so their identities in the test floor are unchanged.
package txtrace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"seer/internal/htm"
	"seer/internal/mem"
	"seer/internal/stats"
	. "seer/internal/telemetry"
)

// Abort statuses by cause.
const (
	conflict = htm.BitConflict | htm.BitRetry
	capacity = htm.BitCapacity
	explicit = htm.BitExplicit | htm.BitRetry
)

// collector builds a recorder with the attribution sink on (and span
// retention when spans is set) for nBlocks atomic blocks.
func collector(nBlocks, threads int, spans bool, ignored ...mem.Line) *Recorder {
	return New(Options{Threads: threads, Blocks: nBlocks, Spans: spans, Attribution: true, IgnoredLines: ignored})
}

// explain returns the recorder's attribution digest.
func explain(t *testing.T, c *Recorder) string {
	t.Helper()
	var b bytes.Buffer
	if err := c.WriteExplain(&b, 5); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestNilCollectorNoOps(t *testing.T) {
	var c *Recorder
	// Every recording method must be callable on the nil recorder's handle.
	h := c.Thread(0)
	h.BlockEnter(1)
	h.AttemptBegin(10)
	h.AttemptCommit(20)
	h.AttemptBegin(20)
	h.AttemptAbort(30, conflict)
	h.Fallback(30)
	h.FallbackEnd(40)
	h.BlockExit()
	c.BeginRun()
	c.Flush(1000)
	if c.DoomHook() != nil || c.TickHook() != nil {
		t.Error("nil recorder must offer no hooks")
	}
	if c.Spans(0) != nil || c.TruthMatrix() != nil || c.Quality() != nil ||
		c.TopPairs(5) != nil || c.TopLines(5) != nil {
		t.Error("nil recorder views must be nil")
	}
	if err := c.WriteExplain(&bytes.Buffer{}, 5); err == nil {
		t.Error("WriteExplain on nil recorder must error")
	}
	if err := c.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace on nil recorder must error")
	}
	if err := c.WriteDOT(&bytes.Buffer{}); err == nil {
		t.Error("WriteDOT on nil recorder must error")
	}
}

func TestPackAborterRoundTrip(t *testing.T) {
	cases := []struct{ hw, block int16 }{
		{0, 0}, {1, 2}, {-1, -1}, {127, 255}, {-1, 3}, {5, -1},
	}
	for _, c := range cases {
		hw, block := UnpackAborter(PackAborter(c.hw, c.block))
		if hw != c.hw || block != c.block {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", c.hw, c.block, hw, block)
		}
	}
}

// TestSpanLifecycle walks one thread through commit, unattributed abort
// and fallback, checking the retained spans field by field.
func TestSpanLifecycle(t *testing.T) {
	c := collector(3, 2, true)
	h := c.Thread(0)

	h.BlockEnter(2)
	h.AttemptBegin(100)
	h.AttemptAbort(150, capacity) // no OnDoom: unattributed
	h.AttemptBegin(160)
	h.AttemptCommit(200)
	h.BlockExit()

	h.BlockEnter(1)
	h.AttemptBegin(300)
	h.AttemptAbort(310, explicit)
	h.Fallback(320)
	h.FallbackEnd(400)
	h.BlockExit()

	spans := c.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	ab := spans[0]
	if ab.Outcome != OutcomeAbort || ab.Begin != 100 || ab.End != 150 ||
		ab.Block != 2 || ab.Retry != 0 || ab.Status != uint32(capacity) {
		t.Errorf("abort span = %+v", ab)
	}
	if ab.AborterHW != -1 || ab.AborterBlock != -1 || ab.Line != NoLine || ab.Depth != 0 {
		t.Errorf("unattributed abort must carry no attribution: %+v", ab)
	}
	cm := spans[1]
	if cm.Outcome != OutcomeCommit || cm.Begin != 160 || cm.End != 200 || cm.Retry != 1 {
		t.Errorf("commit span = %+v", cm)
	}
	if sp := spans[2]; sp.Block != 1 || sp.Retry != 0 {
		t.Errorf("BlockEnter must reset episode state: %+v", sp)
	}
	fb := spans[3]
	if fb.Outcome != OutcomeFallback || fb.Begin != 320 || fb.End != 400 || fb.Block != 1 || fb.Retry != 1 {
		t.Errorf("fallback span = %+v", fb)
	}
	if len(c.Spans(1)) != 0 {
		t.Errorf("idle thread retained spans: %v", c.Spans(1))
	}
	// Capacity and explicit aborts land in their cause rows.
	ex := explain(t, c)
	for _, want := range []string{"capacity  total=1 tx2=1", "explicit  total=1 tx1=1"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain missing %q:\n%s", want, ex)
		}
	}
}

// TestAttribution drives the doom hook and checks that the victim's abort
// span, the truth matrix, the hot-line ranking and the EvDoom mirror all
// carry the ground truth.
func TestAttribution(t *testing.T) {
	c := New(Options{Threads: 2, Blocks: 4, Spans: true, RingCapacity: 16})
	doom := c.DoomHook()

	// Thread 1 runs block 3; thread 0's access in block 2 dooms it on
	// line 7.
	c.Thread(0).BlockEnter(2)
	c.Thread(1).BlockEnter(3)
	c.Thread(1).AttemptBegin(100)
	doom(1, 0, mem.Line(7))
	c.Thread(1).AttemptAbort(140, conflict)

	sp := c.Spans(1)[0]
	if sp.AborterHW != 0 || sp.AborterBlock != 2 || sp.Line != 7 || sp.Depth != 0 {
		t.Errorf("attributed span = %+v", sp)
	}
	if !strings.Contains(explain(t, c), "attributed aborts: 1\n") {
		t.Errorf("attributed count wrong:\n%s", explain(t, c))
	}
	if got := c.TruthMatrix()[3*4+2]; got != 1 {
		t.Errorf("truth[victim=3][aborter=2] = %d, want 1", got)
	}
	if tl := c.TopLines(0); len(tl) != 1 || tl[0] != (LineCount{Line: 7, Count: 1}) {
		t.Errorf("hot lines = %v, want line 7 once", tl)
	}

	// The attribution is mirrored as one EvDoom event.
	var doomEv *Event
	for _, e := range c.Events() {
		if e.Kind == EvDoom {
			e := e
			doomEv = &e
		}
	}
	if doomEv == nil {
		t.Fatal("no EvDoom event recorded")
	}
	if doomEv.Detail != 7 || doomEv.TxID != 3 {
		t.Errorf("EvDoom line/block = %d/%d, want 7/3", doomEv.Detail, doomEv.TxID)
	}
	if hw, block := UnpackAborter(doomEv.Detail2); hw != 0 || block != 2 {
		t.Errorf("EvDoom aborter = (%d,%d), want (0,2)", hw, block)
	}

	// A doom with no attributable requester (-1) attributes the span but
	// adds nothing to the truth matrix.
	c.Thread(1).AttemptBegin(200)
	doom(1, -1, mem.Line(9))
	c.Thread(1).AttemptAbort(220, conflict)
	sp = c.Spans(1)[1]
	if sp.AborterHW != -1 || sp.AborterBlock != -1 || sp.Line != 9 {
		t.Errorf("requesterless doom span = %+v", sp)
	}
	sum := uint64(0)
	for _, w := range c.TruthMatrix() {
		sum += w
	}
	if sum != 1 {
		t.Errorf("truth total = %d, want 1 (requesterless doom excluded)", sum)
	}
}

// TestIgnoredLineAndIdleVictim checks the two truth-matrix filters: dooms
// on ignored lines (the SGL word) and dooms of threads outside a
// policy-level attempt (Seer's multi-CAS) attribute spans but never feed
// the conflict matrix.
func TestIgnoredLineAndIdleVictim(t *testing.T) {
	c := collector(2, 2, true, mem.Line(5))
	doom := c.DoomHook()

	c.Thread(0).BlockEnter(0)
	c.Thread(1).BlockEnter(1)

	// Doom on the ignored line, victim mid-attempt.
	c.Thread(1).AttemptBegin(10)
	doom(1, 0, mem.Line(5))
	c.Thread(1).AttemptAbort(20, conflict)
	if sp := c.Spans(1)[0]; sp.Line != 5 {
		t.Errorf("ignored-line doom must still attribute the span: %+v", sp)
	}

	// Doom outside any attempt (victim between attempts).
	doom(1, 0, mem.Line(6))

	for _, w := range c.TruthMatrix() {
		if w != 0 {
			t.Fatalf("truth matrix must stay empty, got %v", c.TruthMatrix())
		}
	}
	if tl := c.TopLines(0); len(tl) != 0 {
		t.Errorf("hot lines must stay empty, got %v", tl)
	}
}

// TestCascadeDepth checks the blame chain: when the aborter is itself
// retrying after an abort of depth d, the victim's abort gets depth d+1.
func TestCascadeDepth(t *testing.T) {
	c := collector(2, 3, true)
	doom := c.DoomHook()
	t0, t1, t2 := c.Thread(0), c.Thread(1), c.Thread(2)
	t0.BlockEnter(0)
	t1.BlockEnter(1)
	t2.BlockEnter(0)

	// Root abort: thread 0 doomed by thread 1 (which has not aborted).
	t0.AttemptBegin(10)
	doom(0, 1, mem.Line(3))
	t0.AttemptAbort(20, conflict)
	if d := c.Spans(0)[0].Depth; d != 0 {
		t.Fatalf("root abort depth = %d, want 0", d)
	}

	// Thread 0 retries and dooms thread 1: depth 1.
	t0.AttemptBegin(30)
	t1.AttemptBegin(30)
	doom(1, 0, mem.Line(3))
	t1.AttemptAbort(40, conflict)
	if d := c.Spans(1)[0].Depth; d != 1 {
		t.Fatalf("first cascade depth = %d, want 1", d)
	}

	// Thread 1 retries and dooms thread 2: depth 2.
	t1.AttemptBegin(50)
	t2.AttemptBegin(50)
	doom(2, 1, mem.Line(3))
	t2.AttemptAbort(60, conflict)
	if d := c.Spans(2)[0].Depth; d != 2 {
		t.Fatalf("second cascade depth = %d, want 2", d)
	}

	ex := explain(t, c)
	for _, want := range []string{"depth 0          1\n", "depth 1          1\n", "depth 2          1\n"} {
		if !strings.Contains(ex, want) {
			t.Errorf("cascade histogram missing %q:\n%s", want, ex)
		}
	}

	// A committed episode clears the chain: thread 0 commits, re-enters,
	// and its next doom is a fresh root.
	t0.AttemptCommit(70)
	t0.BlockExit()
	t0.BlockEnter(0)
	t2.AttemptBegin(80)
	doom(2, 0, mem.Line(3))
	t2.AttemptAbort(90, conflict)
	if d := c.Spans(2)[1].Depth; d != 0 {
		t.Errorf("post-commit doom depth = %d, want 0 (chain reset)", d)
	}
}

// TestQualitySnapshots drives the inference scorer with a synthetic
// source and checks precision/recall/rank-divergence arithmetic.
func TestQualitySnapshots(t *testing.T) {
	// The source predicts {0,1} (true) and {2,2} (false), and reports
	// learned abort weights that rank {0,1} first — matching truth.
	learned := func(dst *stats.Matrices) [][]int {
		dst.Reset()
		for i := 0; i < 5; i++ {
			dst.AddAbort(0, 1)
		}
		dst.AddAbort(2, 2)
		return [][]int{{1}, {}, {2}}
	}
	c := New(Options{Threads: 2, Blocks: 3, Attribution: true, Interval: 100, Learned: learned})
	c.BeginRun()
	c.Thread(0).BlockEnter(0)
	c.Thread(1).BlockEnter(1)

	// Ground truth: pair {0,1} conflicts 3 times.
	for i := 0; i < 3; i++ {
		c.Thread(1).AttemptBegin(uint64(10 * i))
		c.OnDoom(1, 0, mem.Line(4))
		c.Thread(1).AttemptAbort(uint64(10*i+5), conflict)
	}

	// One periodic cut at 100 and 200, then the final flush at 250.
	c.OnTick(205)
	c.Flush(250)

	snaps := c.Quality()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3 (two periodic + flush)", len(snaps))
	}
	if snaps[0].EndCycle != 100 || snaps[1].EndCycle != 200 || snaps[2].EndCycle != 250 {
		t.Errorf("snapshot cycles = %d,%d,%d", snaps[0].EndCycle, snaps[1].EndCycle, snaps[2].EndCycle)
	}
	fin := snaps[2]
	if fin.TruePairs != 1 || fin.PredictedPairs != 2 || fin.TP != 1 {
		t.Errorf("true=%d predicted=%d tp=%d", fin.TruePairs, fin.PredictedPairs, fin.TP)
	}
	if fin.Precision != 0.5 || fin.Recall != 1.0 {
		t.Errorf("precision=%v recall=%v, want 0.5/1.0", fin.Precision, fin.Recall)
	}
	// Two ranked pairs, same order on both sides: divergence 0.
	if fin.RankDivergence != 0 {
		t.Errorf("rank divergence = %v, want 0", fin.RankDivergence)
	}
	if fin.Attributed != 3 {
		t.Errorf("attributed = %d, want 3", fin.Attributed)
	}
	// The timeline's snapshots carry the same boundaries and the interval's
	// heaviest conflict edge.
	tl := c.Timeline()
	if len(tl) != 3 || tl[2].EndCycle != 250 {
		t.Fatalf("timeline = %+v", tl)
	}
	if p := tl[0].ConflictPairs; len(p) != 1 || p[0] != (PairCount{Victim: 1, Aborter: 0, Count: 3}) {
		t.Errorf("interval 0 conflict pairs = %v", p)
	}
}

// TestRankDivergenceReversed checks the normalization: a perfectly
// reversed ranking of m pairs scores 1, and fewer than two pairs score 0.
func TestRankDivergenceReversed(t *testing.T) {
	final := func(truth00, truth01 int, learned func(dst *stats.Matrices)) QualitySnapshot {
		c := New(Options{Threads: 2, Blocks: 2, Attribution: true, Learned: func(dst *stats.Matrices) [][]int {
			dst.Reset()
			learned(dst)
			return make([][]int, 2)
		}})
		c.BeginRun()
		c.Thread(0).BlockEnter(0)
		dooms := func(aborterBlock, n int) {
			c.Thread(1).BlockEnter(aborterBlock)
			for i := 0; i < n; i++ {
				c.Thread(0).AttemptBegin(0)
				c.OnDoom(0, 1, mem.Line(1))
				c.Thread(0).AttemptAbort(1, conflict)
			}
		}
		dooms(0, truth00)
		dooms(1, truth01)
		c.Flush(10)
		q := c.Quality()
		return q[len(q)-1]
	}
	// Truth ranks {0,0} first; the learner ranks {0,1} first.
	rev := final(10, 5, func(dst *stats.Matrices) {
		dst.AddAbort(0, 1)
		dst.AddAbort(0, 1)
		dst.AddAbort(0, 1)
		dst.AddAbort(0, 0)
	})
	if rev.TruePairs != 2 || rev.RankDivergence != 1 {
		t.Errorf("reversed ranking: %+v, want divergence 1", rev)
	}
	if one := final(3, 0, func(*stats.Matrices) {}); one.TruePairs != 1 || one.RankDivergence != 0 {
		t.Errorf("single pair: %+v, want divergence 0", one)
	}
}

// TestExporters smoke-tests the export formats on a tiny attributed
// history: the Chrome document must be valid JSON with each sink drawing
// its own entries and the abort slice carrying its attribution, and the
// DOT graph must name the participating blocks.
func TestExporters(t *testing.T) {
	// history records thread 1's conflict abort (doomed by thread 0 on
	// line 8), its committed retry and a fall-back episode, with the
	// attribution sink on plus the sinks in o.
	history := func(o Options) *Recorder {
		o.Threads, o.Blocks, o.Attribution = 2, 3, true
		c := New(o)
		c.Thread(0).BlockEnter(0)
		h := c.Thread(1)
		h.BlockEnter(2)
		h.AttemptBegin(100)
		c.OnDoom(1, 0, mem.Line(8))
		h.AttemptAbort(120, conflict)
		h.AttemptBegin(130)
		h.AttemptCommit(150)
		h.BlockExit()
		h.BlockEnter(1)
		h.Fallback(160)
		h.FallbackEnd(170)
		h.BlockExit()
		return c
	}
	c := history(Options{Spans: true})

	// Spans draw the attempt slices and the event log the instants; with
	// both on, the log leaves begin/commit/abort/fallback to the slices.
	for _, o := range []Options{{Spans: true}, {RingCapacity: 64}, {Spans: true, RingCapacity: 64}} {
		var chrome bytes.Buffer
		if err := history(o).WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
			t.Fatalf("%+v: Chrome document invalid: %v\n%s", o, err, chrome.String())
		}
		slices, attemptEvents, other := 0, 0, 0
		for _, e := range doc.TraceEvents {
			name, _ := e["name"].(string)
			switch {
			case e["ph"] == "X":
				slices++
				if args, _ := e["args"].(map[string]any); slices == 1 &&
					(name != "tx2/abort" || args["line"] != float64(8) || args["aborter_hw"] != float64(0)) {
					t.Errorf("%+v: abort slice = %v", o, e)
				}
			case name == "begin" || name == "sgl-fallback" || strings.HasPrefix(name, "tx"):
				attemptEvents++
			default:
				other++
			}
		}
		wantSlices, wantAttemptEvents, wantOther := 0, 0, 0
		if o.Spans {
			wantSlices = 3
		}
		if o.RingCapacity > 0 {
			wantOther = 1 // the doom
			if !o.Spans {
				wantAttemptEvents = 5 // two begins, the abort, the commit, the fall-back
			}
		}
		if slices != wantSlices || attemptEvents != wantAttemptEvents || other != wantOther {
			t.Errorf("%+v: %d slices, %d attempt events, %d other entries; want %d, %d, %d\n%s",
				o, slices, attemptEvents, other, wantSlices, wantAttemptEvents, wantOther, chrome.String())
		}
	}

	var dot bytes.Buffer
	if err := c.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	s := dot.String()
	for _, want := range []string{"digraph conflicts", "tx0 [", "tx2 [", "tx0 -> tx2"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q:\n%s", want, s)
		}
	}

	pairs := c.TopPairs(10)
	if len(pairs) != 1 || pairs[0] != (PairCount{Victim: 2, Aborter: 0, Count: 1}) {
		t.Errorf("TopPairs = %v", pairs)
	}
	tl := c.TopLines(10)
	if len(tl) != 1 || tl[0] != (LineCount{Line: 8, Count: 1}) {
		t.Errorf("TopLines = %v", tl)
	}

	ex := explain(t, c)
	for _, want := range []string{"attributed aborts: 1", "tx2", "line 8", "conflict"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain missing %q:\n%s", want, ex)
		}
	}
}

// TestTopPairsOrdering checks the deterministic sort: count descending,
// ties by victim then aborter, truncated at k.
func TestTopPairsOrdering(t *testing.T) {
	c := collector(3, 2, false)
	c.Thread(0).BlockEnter(0)
	doom := func(victimBlock int, times int) {
		c.Thread(1).BlockEnter(victimBlock)
		for i := 0; i < times; i++ {
			c.Thread(1).AttemptBegin(0)
			c.OnDoom(1, 0, mem.Line(1))
			c.Thread(1).AttemptAbort(1, conflict)
		}
	}
	doom(2, 1)
	doom(1, 3)
	doom(0, 1)

	got := c.TopPairs(0)
	want := []PairCount{
		{Victim: 1, Aborter: 0, Count: 3},
		{Victim: 0, Aborter: 0, Count: 1},
		{Victim: 2, Aborter: 0, Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("TopPairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("TopPairs[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if k2 := c.TopPairs(2); len(k2) != 2 || k2[0] != want[0] {
		t.Errorf("TopPairs(2) = %v", k2)
	}
	if c.Spans(1) != nil {
		t.Errorf("spans retained with span retention off: %v", c.Spans(1))
	}
}
