package telemetry

import "seer/internal/stats"

// Buffers holds a Recorder's growing storage between replica lifetimes:
// the per-thread handles with their span slices, the event ring, the
// snapshot slice with its arena, and the scorer's trajectory, pair state
// and rankings. Paired with mem.Buffers and htm.Buffers it lets a grid
// worker record every cell on one set of arrays (see seer.Recycler), so a
// cell with every sink on allocates like a cell with none. The zero value is
// ready: the first NewRecycled allocates.
type Buffers struct {
	threads []Thread
	events  []Event
	snaps   []Snapshot
	arena   arena
	scorer  scorer // learned is nil
}

// NewRecycled builds the recorder for o like New, drawing its storage from
// buf where the capacity suffices and allocating otherwise. All of buf is
// owned by the returned Recorder — sinks that are off carry their storage
// along untouched — until Release hands it back; a nil buf is exactly New.
// NewRecycled only draws or sizes the storage and then resets it with
// BeginRun, so a recycled recorder is indistinguishable from a fresh one:
// stale ring entries are unobservable behind the reset cursor.
func NewRecycled(o Options, buf *Buffers) *Recorder {
	var b Buffers
	if buf != nil {
		b, *buf = *buf, Buffers{}
	}
	o.Attribution = o.Attribution || o.Spans
	r := &Recorder{opt: o, threads: sized(b.threads, o.Threads), period: o.Interval}
	r.ring.events = sized(b.events, o.RingCapacity)
	r.timeline.snaps, r.timeline.arena = b.snaps, b.arena
	r.scorer = b.scorer
	if o.Attribution {
		r.attr = newAttribution(o)
		if o.Interval > 0 {
			r.timeline.prevTruth = make([]uint64, len(r.attr.truth))
		}
		if o.Learned != nil {
			// The rankings hold at most n(n+1)/2 ≤ n² keys: sized up front,
			// they never grow during the cell.
			sc, nn := &r.scorer, o.Blocks*o.Blocks
			sc.learned = stats.NewMatrices(o.Blocks)
			sc.keys, sc.ordT, sc.ordL = sized(sc.keys, nn), sized(sc.ordT, nn), sized(sc.ordL, nn)
			if r.period == 0 {
				r.period = defaultPeriod
			}
		}
	}
	r.BeginRun()
	return r
}

// sized returns s resliced to n elements, or a fresh slice when its
// capacity falls short. The contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release returns the recorder's storage to buf for the next recorder
// built on it. The Recorder, and every slice borrowed from it, must not be
// used afterwards.
func (r *Recorder) Release(buf *Buffers) {
	if r == nil {
		return
	}
	tl := &r.timeline
	r.scorer.learned = nil
	*buf = Buffers{r.threads, r.ring.events, tl.snaps, tl.arena, r.scorer}
	r.threads, r.ring, r.timeline, r.scorer = nil, ring{}, timeline{}, scorer{}
}
