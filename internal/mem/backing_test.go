package mem

import (
	"errors"
	"runtime"
	"testing"
)

// TestAccessPastWatermark: host memory backs only the touched prefix, but
// every address below the configured size behaves as if backed from the
// start — loads read zero, stores persist and registrations doom — and
// the first address past it faults exactly as before.
func TestAccessPastWatermark(t *testing.T) {
	const size = 1 << 16
	m, d := newTestMem(size)
	m.Alloc(1)
	far := Addr(size / 2) // far past brk and past the first backing chunk
	if got := m.Peek(far); got != 0 {
		t.Fatalf("Peek past the watermark = %d, want 0", got)
	}
	if got := m.DirectLoad(0, far+1); got != 0 {
		t.Fatalf("DirectLoad past the watermark = %d, want 0", got)
	}
	m.Poke(far, 7)
	m.DirectStore(0, far+1, 8)
	if m.Peek(far) != 7 || m.Peek(far+1) != 8 {
		t.Fatalf("stores past the watermark lost: %d %d", m.Peek(far), m.Peek(far+1))
	}

	higher := far + 100*LineWords // regrows again
	if _, grew, _ := m.RegisterRead(1, higher); !grew {
		t.Fatalf("RegisterRead past the watermark did not grow the read set")
	}
	if grew, _ := m.RegisterWrite(2, higher); !grew {
		t.Fatalf("RegisterWrite past the watermark did not grow the write set")
	}
	if len(d.doomedReaders) != 1 || d.doomedReaders[0] != 1<<1 || d.lines[0] != LineOf(higher) {
		t.Fatalf("writer did not doom reader 1 on line %d: readers %v lines %v", LineOf(higher), d.doomedReaders, d.lines)
	}
	if m.LineWriter(LineOf(higher)) != 2 {
		t.Fatalf("LineWriter = %d, want 2", m.LineWriter(LineOf(higher)))
	}
	if r, w := m.LineReaders(LineOf(size-1)), m.LineWriter(LineOf(size-1)); !r.Empty() || w != -1 {
		t.Fatalf("untouched line reports readers %v writer %d", r, w)
	}

	m.Poke(size-1, 9)
	if m.Peek(size-1) != 9 {
		t.Fatalf("last configured word lost its store")
	}
	// The fault names the configured size, however much is backed.
	for _, mm := range []*Memory{m, New(size)} {
		err := addrFault(mm, size)
		if !errors.Is(err, ErrBadAddress) {
			t.Fatalf("panic value %v, want an error wrapping ErrBadAddress", err)
		}
		if want := "mem: address out of range: 65536 (65536 words)"; err.Error() != want {
			t.Fatalf("panic message %q, want %q", err, want)
		}
	}
}

// addrFault returns the error Peek(a) panics with, nil if it does not.
func addrFault(m *Memory, a Addr) (err error) {
	defer func() { err, _ = recover().(error) }()
	m.Peek(a)
	return nil
}

// TestRecycledRegrowthIsClean: a memory built on Buffers a previous
// memory dirtied (words written, lines left registered, as after a failed
// run) reads zero words and unregistered lines wherever it grows, both
// when it re-slices within the recycled capacity and when it reallocates
// past it.
func TestRecycledRegrowthIsClean(t *testing.T) {
	const size = 1 << 16
	var buf Buffers
	dirty := NewRecycled(size, 1, &buf)
	dirty.SetDoomer(&recordingDoomer{})
	top := Addr(600*LineWords - 1) // 600 lines: one first chunk
	for a := Addr(1); a <= top; a += 3 {
		dirty.Poke(a, 0xDEAD)
		dirty.RegisterRead(int(a)%128, a)
		dirty.RegisterWrite(int(a+1)%128, a)
	}
	dirty.Release(&buf)
	capLines := cap(buf.lines)
	if capLines < 600 {
		t.Fatalf("recycled capacity %d lines, want at least 600", capLines)
	}

	m := NewRecycled(size, 1, &buf)
	clean := func(path string, from, to Line) {
		t.Helper()
		for ln := from; ln <= to; ln++ {
			if r, w := m.LineReaders(ln), m.LineWriter(ln); !r.Empty() || w != -1 {
				t.Fatalf("%s: line %d readers %v writer %d, want unregistered", path, ln, r, w)
			}
			for a := Addr(ln) * LineWords; a < Addr(ln+1)*LineWords; a++ {
				if v := m.Peek(a); v != 0 {
					t.Fatalf("%s: word %d = %#x, want 0", path, a, v)
				}
			}
		}
	}
	m.Poke(10*LineWords, 1) // re-slice to 11 lines within the capacity
	if cap(m.lines) != capLines {
		t.Fatalf("re-slice reallocated: cap %d, want %d", cap(m.lines), capLines)
	}
	clean("re-slice", 0, 9)
	m.Poke(2000*LineWords, 2) // past the capacity: reallocation
	if cap(m.lines) == capLines {
		t.Fatalf("growth past the capacity did not reallocate")
	}
	if m.Peek(10*LineWords) != 1 {
		t.Fatalf("reallocation lost a word of the touched prefix")
	}
	clean("reallocation", 11, 1999)
}

// TestHostMemoryFollowsUse: a memory configured at a million words but
// touched at one address costs host memory for one backing chunk, not for
// the configured size (about 13 MB when every word and line was backed
// up front).
func TestHostMemoryFollowsUse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(1 << 20)
	m.Poke(m.Alloc(1), 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("New(1<<20) plus one Poke allocated %d bytes, want under %d", got, 128<<10)
	}
}
