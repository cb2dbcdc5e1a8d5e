package mem

// Buffers holds a Memory's backing arrays — the word store and the
// conflict-registry table — between replica lifetimes. The harness's
// grid executor keeps one Buffers per worker: every cell the
// worker runs builds its simulator replica on the worker's own arrays
// (NewRecycled) and returns them on completion (Release), so a sweep of
// hundreds of cells allocates the backing once per worker instead of
// once per cell, and two workers never share a byte of mutable engine
// state. The arrays grow only as far as a cell touches its memory, so a
// Buffers keeps the largest touched prefix any of its cells reached, not
// the largest configured size.
//
// The zero value is ready to use: the first access allocates.
type Buffers struct {
	words []uint64
	lines []lineState
}

// NewRecycled creates a memory like New, taking buf's arrays at length 0:
// the memory re-slices them as its program touches lines, resetting
// only the words and lines it takes, and reallocates past their capacity.
// shards is ignored; it stays only because benchmark/layers.go passes it
// (ROADMAP item 1(b)). buf's arrays are owned by the returned Memory until
// Release hands them back; a nil buf is exactly New. A recycled Memory is
// indistinguishable from a fresh one: all words zero, all registry
// entries empty, allocation watermark at word 1.
func NewRecycled(words, shards int, buf *Buffers) *Memory {
	if words < LineWords {
		words = LineWords
	}
	m := &Memory{size: (words + LineWords - 1) / LineWords * LineWords, brk: 1} // reserve word 0 as Nil
	if buf != nil {
		m.words, m.lines = buf.words[:0], buf.lines[:0]
		buf.words, buf.lines = nil, nil
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
