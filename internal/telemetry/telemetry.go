// Package telemetry is the TM runtime's observability recorder. The
// runtime reports what happens — block enter/exit, attempt begin, commit
// and abort, fall-backs, waits, lock operations, scheme updates — through
// one nil-safe per-thread handle (Thread), one call per site; the Recorder
// fans each event out to the sinks the configuration switched on. What the
// runtime counts it counts once, in its per-thread ledger (Counters), which
// the Report sums and the timeline reads; the handle keeps no counters.
//
//   - the event log: a bounded ring of the most recent events
//     (Options.RingCapacity; events.go);
//   - the timeline: the per-thread ledgers diffed into one Snapshot per
//     virtual-time interval (Options.Interval; timeline.go);
//   - attempt spans: one Span per attempt or fall-back, with ground-truth
//     abort attribution (Options.Spans; attribution.go);
//   - attribution: the block×block ground-truth conflict matrix, aborts by
//     cause and block, cascade depths and hot lines, fed by the HTM's doom
//     hook at the conflict registry's clash point (Options.Attribution,
//     implied by Spans; attribution.go);
//   - the inference-quality scorer: Seer's learned locking scheme scored
//     against that ground truth at every interval boundary (on with
//     attribution when Options.Learned is set; quality.go).
//
// One interval clock (BeginRun/OnTick/Flush) drives the timeline and the
// scorer, so a Snapshot and a QualitySnapshot always share their boundary.
// The clock is the simulator's deterministic virtual time, so every export
// is bit-for-bit reproducible for a fixed seed; recording never advances
// that clock, and the engine calls OnTick only at the boundary it returned,
// so schedules and the engine's own work are identical with any sink on or
// off. With no sink on the system keeps a nil Recorder, every handle is
// nil, and each site costs one nil check. The engine runs all simulated
// threads on one goroutine, so nothing here is synchronized.
package telemetry

import (
	"math"

	"seer/internal/htm"
	"seer/internal/machine"
	"seer/internal/mem"
	"seer/internal/stats"
)

// LockKind tags EvLockAcq/EvLockRel/EvWait events with the kind of
// scheduler lock involved. Waits on the single-global lock carry 0.
type LockKind uint32

// Lock kinds.
const (
	LockTx   LockKind = iota // a Seer transaction (or object-stripe) lock
	LockCore                 // a Seer physical-core lock
)

// defaultPeriod is the interval clock's period when the timeline is off
// but the inference-quality scorer still needs boundaries.
const defaultPeriod = 1 << 16

// Options configures a Recorder. The four sink switches mirror the
// seer.Config fields of the same meaning; the sources are sampled at
// every interval boundary and left nil when the system has nothing to
// sample.
type Options struct {
	Threads int // hardware threads (one handle each)
	Blocks  int // atomic blocks

	RingCapacity int    // event log: retain the most recent N events (0 = off)
	Interval     uint64 // timeline: snapshot period in cycles (0 = off)
	Spans        bool   // retain per-attempt spans (implies Attribution)
	Attribution  bool   // ground-truth attribution accumulators

	// IgnoredLines are excluded from the conflict matrix and the hot-line
	// ranking. The system lists the single-global-lock word: every attempt
	// subscribes to it, so its conflicts describe the fall-back protocol,
	// not the workload's data.
	IgnoredLines []mem.Line

	// Scheduler returns Seer's current thresholds and the locking scheme's
	// pair count.
	Scheduler func() (th1, th2 float64, schemePairs int)
	// Quantum returns the engine's counters in this Run; the timeline
	// diffs their speculative-quantum totals.
	Quantum func() machine.Counters
	// Phase returns the phased-TM runtime's per-phase occupancy (HW, SW,
	// GLOCK) in this Run as of virtual time now.
	Phase func(now uint64) (occupancy [3]uint64)
	// Learned fills dst with Seer's learned commit/abort statistics and
	// returns the live locking scheme (row x lists the lock ids block x
	// acquires); it arms the inference-quality scorer.
	Learned func(dst *stats.Matrices) [][]int
}

// Recorder is one system's observability state: the per-thread handles
// and every sink. A nil *Recorder is a valid recorder with every sink off.
type Recorder struct {
	opt     Options
	threads []Thread

	ring     ring
	attr     *attribution // nil unless Spans or Attribution
	timeline timeline     // cut only when opt.Interval > 0

	// The interval clock: [start, start+period) is the interval being
	// accumulated; cuts counts the boundaries cut in this Run.
	period uint64
	start  uint64
	cuts   int

	scorer scorer // learned is nil when the scorer is off
}

// New builds the recorder for o on fresh storage. A system with no sink to
// switch on keeps a nil *Recorder instead.
func New(o Options) *Recorder { return NewRecycled(o, nil) }

// Thread returns hardware thread hw's handle (nil on a nil recorder, so
// every event downstream is a no-op).
func (r *Recorder) Thread(hw int) *Thread {
	if r == nil {
		return nil
	}
	return &r.threads[hw]
}

// --- The interval clock ---

// TickHook returns the engine tick hook that drives the interval clock, or
// nil when neither the timeline nor the scorer needs one (no period).
func (r *Recorder) TickHook() func(now uint64) (next uint64) {
	if r == nil || r.period == 0 {
		return nil
	}
	return r.OnTick
}

// DoomHook returns the HTM doom hook (OnDoom), or nil when the attribution
// sink is off.
func (r *Recorder) DoomHook() func(victim, aborter int, ln mem.Line) {
	if r.attribution() == nil {
		return nil
	}
	return r.OnDoom
}

// BeginRun starts a Run, and is the recorder's one reset: every record
// covers the Run it starts. It rewinds the interval clock to cycle 0,
// resets every handle (spare ones included: they keep only their span
// storage), empties the event ring, the attribution accumulators, the
// snapshots and the quality trajectory, and zeroes the timeline's
// last-cut values. The engine restarts the virtual clocks, its own
// counters, the runtime's ledgers and the phase occupancy with every Run,
// so everything the recorder diffs against restarts at zero with them.
func (r *Recorder) BeginRun() {
	if r == nil {
		return
	}
	r.start, r.cuts = 0, 0
	all := r.threads[:cap(r.threads)]
	for hw := range all {
		all[hw] = Thread{rec: r, hw: int16(hw), block: -1, spans: all[hw].spans[:0]}
	}
	r.ring = ring{events: r.ring.events}
	if a := r.attr; a != nil {
		clear(a.truth)
		clear(a.causeBlock)
		clear(a.lineConflicts)
		a.cascadeHist, a.attributed = [MaxCascadeDepth + 1]uint64{}, 0
	}
	tl := &r.timeline
	*tl = timeline{snaps: tl.snaps[:0], arena: arena{tl.arena.pairs[:0], tl.arena.hist[:0]}, prevTruth: tl.prevTruth}
	clear(tl.prevTruth)
	// With no kept rankings, the first cut ranks from key order.
	sc := &r.scorer
	sc.quality, sc.ordT, sc.ordL = sc.quality[:0], sc.ordT[:0], sc.ordL[:0]
	clear(sc.keys)
}

// Bind hands hardware thread hw's ledger for this Run to its handle, which
// it returns (nil on a nil recorder). The timeline reads the ledger at
// every interval boundary; only the runtime writes it.
func (r *Recorder) Bind(hw int, c *Counters) *Thread {
	t := r.Thread(hw)
	if t != nil {
		t.ledger = c
	}
	return t
}

// OnTick advances the clock to now, the global virtual time (the minimum
// clock over runnable threads, non-decreasing within a run), cutting one
// boundary per fully elapsed interval. It returns the next boundary: a
// call before it would cut nothing, so the engine calls OnTick only at
// the first tick that reaches it.
func (r *Recorder) OnTick(now uint64) (next uint64) {
	for now >= r.start+r.period {
		r.cut(r.start + r.period)
	}
	return r.start + r.period
}

// Flush closes the run at end (its makespan): it cuts any fully elapsed
// intervals and then a trailing partial one, so a run shorter than one
// interval still yields one boundary. Without a clock it does nothing.
func (r *Recorder) Flush(end uint64) {
	if r == nil || r.period == 0 {
		return
	}
	r.OnTick(end)
	if end > r.start || r.cuts == 0 {
		r.cut(end)
	}
}

// cut closes the interval [r.start, end) in every clocked sink.
func (r *Recorder) cut(end uint64) {
	if r.opt.Interval > 0 {
		r.cutSnapshot(end)
	}
	if r.scorer.learned != nil {
		r.cutQuality(end)
	}
	r.cuts++
	r.start = end
}

// Timeline returns a deep copy of the snapshots cut in the current Run
// (nil when the timeline is off): the caller owns it, per-snapshot slices
// included, so it outlives Release.
func (r *Recorder) Timeline() []Snapshot {
	if r == nil {
		return nil
	}
	tl := &r.timeline
	out := append([]Snapshot(nil), tl.snaps...)
	own := arena{
		pairs: make([]PairCount, 0, len(tl.arena.pairs)),
		hist:  make([]uint64, 0, len(tl.arena.hist)),
	}
	for i := range out {
		s := &out[i]
		s.ConflictPairs = carve(&own.pairs, s.ConflictPairs)
		s.CascadeHist = carve(&own.hist, s.CascadeHist)
	}
	return out
}

// Quality returns a copy of the current Run's inference-quality trajectory
// (nil when the scorer is off); like Timeline it outlives Release.
func (r *Recorder) Quality() []QualitySnapshot {
	if r == nil {
		return nil
	}
	return append([]QualitySnapshot(nil), r.scorer.quality...)
}

// --- The per-thread handle ---

// Thread is one hardware thread's recording handle; its methods are the
// runtime's event vocabulary. A nil *Thread is a valid, disabled handle:
// every method is a no-op costing one predictable branch. Methods taking
// now stamp the event with that virtual time (the caller's clock).
type Thread struct {
	rec    *Recorder
	hw     int16
	ledger *Counters // this Run's ledger (Bind); nil until bound

	// Episode state, written by the owning thread and read by OnDoom
	// (which the engine serializes like any access).
	block     int16  // current atomic block, -1 when idle
	retry     uint8  // attempts completed in the current episode
	inAttempt bool   // between AttemptBegin and its commit/abort
	aborted   bool   // aborted at least once in the current episode
	lastDepth uint16 // cascade depth of the episode's latest abort
	begin     uint64 // begin cycle of the open attempt or fall-back
	pend      pending
	spans     []Span
}

// log appends an event to the event log; inBlock stamps it with the
// thread's current atomic block, otherwise with -1.
func (t *Thread) log(now uint64, kind Kind, inBlock bool, detail, detail2 uint32) {
	if t == nil {
		return
	}
	tx := int16(-1)
	if inBlock {
		tx = t.block
	}
	t.rec.ring.add(Event{Cycle: now, HW: t.hw, Kind: kind, TxID: tx, Detail: detail, Detail2: detail2})
}

// BlockEnter opens an atomic-block episode.
func (t *Thread) BlockEnter(block int) {
	if t == nil {
		return
	}
	t.block = int16(block)
	t.retry = 0
	t.aborted = false
	t.lastDepth = 0
	t.pend.valid = false
}

// BlockExit closes the episode.
func (t *Thread) BlockExit() {
	if t == nil {
		return
	}
	t.block = -1
	t.inAttempt = false
	t.aborted = false
	t.pend.valid = false
}

// AttemptBegin records the start of a transaction attempt (hardware or
// software commit path).
func (t *Thread) AttemptBegin(now uint64) {
	if t == nil {
		return
	}
	t.log(now, EvBegin, true, 0, 0)
	t.begin = now
	t.inAttempt = true
	t.pend.valid = false
}

// AttemptCommit records that the open attempt committed.
func (t *Thread) AttemptCommit(now uint64) {
	if t == nil {
		return
	}
	t.log(now, EvCommit, true, 0, 0)
	t.closeAttempt(now, OutcomeCommit, 0)
}

// AttemptAbort records that the open attempt aborted with the given
// status, consuming any attribution OnDoom parked for it.
func (t *Thread) AttemptAbort(now uint64, status htm.Status) {
	if t == nil {
		return
	}
	t.log(now, EvAbort, true, uint32(status), 0)
	t.aborted = true
	t.closeAttempt(now, OutcomeAbort, status)
}

// Fallback records entry into the single-global-lock path.
func (t *Thread) Fallback(now uint64) {
	if t == nil {
		return
	}
	t.log(now, EvFallback, true, 0, 0)
	t.begin = now
}

// FallbackEnd records the end of the fall-back (lock released): the span
// covers acquisition wait, body and release.
func (t *Thread) FallbackEnd(now uint64) {
	if t == nil {
		return
	}
	if t.rec.opt.Spans {
		t.spans = append(t.spans, t.span(now, OutcomeFallback))
	}
}

// Wait logs the start of a cooperative wait on a lock of the given kind.
func (t *Thread) Wait(now uint64, kind LockKind) { t.log(now, EvWait, true, uint32(kind), 0) }

// LockAcquired logs the acquisition of scheduler lock id.
func (t *Thread) LockAcquired(now uint64, id int, kind LockKind) {
	t.log(now, EvLockAcq, true, uint32(id), uint32(kind))
}

// LocksReleased logs a release: n is the batch size for LockTx (the ids
// were logged at acquisition) and the core id for LockCore.
func (t *Thread) LocksReleased(now uint64, n int, kind LockKind) {
	t.log(now, EvLockRel, false, uint32(n), uint32(kind))
}

// Phase logs a phased-TM mode transition.
func (t *Thread) Phase(now uint64, to, from int) {
	t.log(now, EvPhase, false, uint32(to), uint32(from))
}

// Scheme logs a locking-scheme recomputation yielding pairs serialized
// block pairs.
func (t *Thread) Scheme(now uint64, pairs int) { t.log(now, EvScheme, false, uint32(pairs), 0) }

// Tune logs a threshold re-tuning.
func (t *Thread) Tune(now uint64, th1, th2 float64) {
	t.log(now, EvTune, false, math.Float32bits(float32(th1)), math.Float32bits(float32(th2)))
}
