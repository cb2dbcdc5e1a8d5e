package mem

// Buffers holds a Memory's large backing arrays — the word store and the
// conflict-registry table — between replica lifetimes. The harness's
// grid executor keeps one Buffers per worker: every cell the
// worker runs builds its simulator replica on the worker's own arrays
// (NewRecycled) and returns them on completion (Release), so a sweep of
// hundreds of cells allocates the multi-megabyte state once per worker
// instead of once per cell, and two workers never share a byte of
// mutable engine state.
//
// The zero value is ready to use: the first NewRecycled allocates.
type Buffers struct {
	words []uint64
	lines []lineState
}

// NewRecycled creates a memory like New, drawing the backing arrays from
// buf when their capacity suffices (resetting them in place) and
// allocating fresh ones otherwise. shards is ignored; it stays only
// because benchmark/layers.go passes it (ROADMAP item 1(b)). buf's arrays
// are owned by the returned Memory until Release hands them back; a nil
// buf is exactly New. A recycled Memory is indistinguishable from a fresh
// one: all words zero, all registry entries empty, allocation watermark
// at word 1.
func NewRecycled(words, shards int, buf *Buffers) *Memory {
	if words < LineWords {
		words = LineWords
	}
	nLines := (words + LineWords - 1) / LineWords
	nWords := nLines * LineWords
	m := &Memory{brk: 1} // reserve word 0 as Nil
	if buf != nil && cap(buf.words) >= nWords && cap(buf.lines) >= nLines {
		m.words = buf.words[:nWords]
		clear(m.words)
		m.lines = buf.lines[:nLines]
		buf.words, buf.lines = nil, nil
	} else {
		m.words = make([]uint64, nWords)
		m.lines = make([]lineState, nLines)
	}
	for i := range m.lines {
		m.lines[i] = lineState{writer: -1}
	}
	return m
}

// Release returns the memory's backing arrays to buf for the next
// replica built on it. The Memory must not be used afterwards.
func (m *Memory) Release(buf *Buffers) {
	if cap(m.words) > cap(buf.words) {
		buf.words = m.words
	}
	if cap(m.lines) > cap(buf.lines) {
		buf.lines = m.lines
	}
	m.words, m.lines = nil, nil
}
