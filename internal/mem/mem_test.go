package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"seer/internal/topology"
)

// recordingDoomer records doom notifications for assertions.
type recordingDoomer struct {
	doomedReaders []uint64
	doomedWriters []int
	lines         []Line
}

func (d *recordingDoomer) DoomReaders(readers topology.Set, self int, ln Line) {
	if self >= 0 {
		readers.Remove(self)
	}
	d.doomedReaders = append(d.doomedReaders, readers.W[0])
	d.lines = append(d.lines, ln)
}

func (d *recordingDoomer) DoomWriter(writer, self int, ln Line) {
	if writer != self {
		d.doomedWriters = append(d.doomedWriters, writer)
		d.lines = append(d.lines, ln)
	}
}

func newTestMem(words int) (*Memory, *recordingDoomer) {
	m := New(words)
	d := &recordingDoomer{}
	m.SetDoomer(d)
	return m, d
}

func TestAllocBasics(t *testing.T) {
	m, _ := newTestMem(1024)
	a := m.Alloc(10)
	if a == Nil {
		t.Fatalf("Alloc returned Nil (word 0 must stay reserved)")
	}
	b := m.Alloc(1)
	if b != a+10 {
		t.Fatalf("bump allocation not contiguous: %d then %d", a, b)
	}
	c := m.AllocLines(2)
	if c%LineWords != 0 {
		t.Fatalf("AllocLines not aligned: %d", c)
	}
	d := m.AllocAligned(3)
	if d%LineWords != 0 {
		t.Fatalf("AllocAligned not aligned: %d", d)
	}
	if m.Free() <= 0 {
		t.Fatalf("Free() = %d", m.Free())
	}
}

func TestAllocExhaustion(t *testing.T) {
	m, _ := newTestMem(64)
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("panic value %v, want an error wrapping ErrOutOfMemory", err)
		}
	}()
	m.Alloc(1000)
}

func TestAllocRejectsNonPositive(t *testing.T) {
	m, _ := newTestMem(64)
	for _, f := range []func(){
		func() { m.Alloc(0) },
		func() { m.AllocLines(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPeekPoke(t *testing.T) {
	m, _ := newTestMem(128)
	a := m.Alloc(4)
	m.Poke(a+2, 0xDEADBEEF)
	if got := m.Peek(a + 2); got != 0xDEADBEEF {
		t.Fatalf("Peek = %#x", got)
	}
	if got := m.Peek(a); got != 0 {
		t.Fatalf("fresh word = %#x, want 0", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m, _ := newTestMem(64)
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("panic value %v, want an error wrapping ErrBadAddress", err)
		}
	}()
	m.Peek(Addr(1 << 20))
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(7) != 0 || LineOf(8) != 1 || LineOf(17) != 2 {
		t.Fatalf("LineOf mapping wrong: %d %d %d %d", LineOf(0), LineOf(7), LineOf(8), LineOf(17))
	}
}

func TestRegisterReadTracksReaders(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	if grew, _ := m.RegisterRead(3, a); !grew {
		t.Fatalf("first RegisterRead should grow the read set")
	}
	if grew, _ := m.RegisterRead(3, a); grew {
		t.Fatalf("repeated RegisterRead of same line should not grow")
	}
	if grew, _ := m.RegisterRead(5, a+1); !grew { // same line, different word, other thread
		t.Fatalf("second thread should register")
	}
	ln := LineOf(a)
	if m.LineReaders(ln).W[0] != (1<<3 | 1<<5) {
		t.Fatalf("readers = %#x", m.LineReaders(ln).W)
	}
	if len(d.doomedReaders) != 0 || len(d.doomedWriters) != 0 {
		t.Fatalf("read-read sharing must not doom anyone")
	}
}

func TestRegisterWriteDoomsReadersAndWriter(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	m.RegisterRead(1, a)
	m.RegisterRead(2, a)
	if grew, _ := m.RegisterWrite(4, a); !grew {
		t.Fatalf("RegisterWrite should grow the write set")
	}
	if len(d.doomedReaders) != 1 || d.doomedReaders[0] != (1<<1|1<<2) {
		t.Fatalf("doomedReaders = %v, want [0b110]", d.doomedReaders)
	}
	if m.LineWriter(LineOf(a)) != 4 {
		t.Fatalf("writer = %d, want 4", m.LineWriter(LineOf(a)))
	}
	// A second writer dooms the first (requester wins).
	m.RegisterWrite(6, a)
	if len(d.doomedWriters) != 1 || d.doomedWriters[0] != 4 {
		t.Fatalf("doomedWriters = %v, want [4]", d.doomedWriters)
	}
	if m.LineWriter(LineOf(a)) != 6 {
		t.Fatalf("writer = %d, want 6", m.LineWriter(LineOf(a)))
	}
}

func TestRegisterReadDoomsWriter(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	m.RegisterWrite(2, a)
	m.RegisterRead(7, a)
	if len(d.doomedWriters) != 1 || d.doomedWriters[0] != 2 {
		t.Fatalf("doomedWriters = %v, want [2]", d.doomedWriters)
	}
}

func TestOwnWriteThenReadNoDoom(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	m.RegisterWrite(3, a)
	m.RegisterRead(3, a)
	m.RegisterWrite(3, a+1)
	if len(d.doomedWriters) != 0 && len(d.doomedReaders) != 0 {
		t.Fatalf("own accesses doomed self: %v %v", d.doomedWriters, d.doomedReaders)
	}
}

// TestRegisterReturnFlags: the grew/ownWrite/wasReader returns are what
// let the HTM keep exact footprint counters without membership maps.
func TestRegisterReturnFlags(t *testing.T) {
	m, _ := newTestMem(256)
	a := m.AllocLines(1)
	// Write first, then read the same line: the read grows the reader
	// bitmask but reports ownWrite, so it must not count against the
	// read budget.
	if grew, wasReader := m.RegisterWrite(3, a); !grew || wasReader {
		t.Fatalf("fresh write: grew=%v wasReader=%v, want true,false", grew, wasReader)
	}
	if grew, ownWrite := m.RegisterRead(3, a); !grew || !ownWrite {
		t.Fatalf("read of own written line: grew=%v ownWrite=%v, want true,true", grew, ownWrite)
	}
	// Read first, then write on a fresh line: the write reports
	// wasReader, so the line must not be recorded twice.
	b := m.AllocLines(1)
	if grew, ownWrite := m.RegisterRead(4, b); !grew || ownWrite {
		t.Fatalf("fresh read: grew=%v ownWrite=%v, want true,false", grew, ownWrite)
	}
	if grew, wasReader := m.RegisterWrite(4, b); !grew || !wasReader {
		t.Fatalf("write of own read line: grew=%v wasReader=%v, want true,true", grew, wasReader)
	}
	// Repeated write: the write set does not grow again.
	if grew, wasReader := m.RegisterWrite(4, b); grew || !wasReader {
		t.Fatalf("repeated write: grew=%v wasReader=%v, want false,true", grew, wasReader)
	}
}

func TestUnregisterClearsState(t *testing.T) {
	m, _ := newTestMem(256)
	a := m.AllocLines(1)
	b := m.AllocLines(1)
	m.RegisterRead(1, a)
	m.RegisterWrite(1, b)
	m.Unregister(1, []Line{LineOf(a), LineOf(b)})
	if !m.LineReaders(LineOf(a)).Empty() {
		t.Fatalf("readers not cleared")
	}
	if m.LineWriter(LineOf(b)) != -1 {
		t.Fatalf("writer not cleared")
	}
	// Unregister must not clear someone else's writership.
	m.RegisterWrite(2, b)
	m.Unregister(1, []Line{LineOf(b)})
	if m.LineWriter(LineOf(b)) != 2 {
		t.Fatalf("unregister clobbered another thread's writership")
	}
}

func TestDirectStoreStrongIsolation(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	m.RegisterRead(1, a)
	m.RegisterWrite(2, a+1) // same line
	m.DirectStore(5, a, 42)
	if m.Peek(a) != 42 {
		t.Fatalf("direct store did not land")
	}
	if len(d.doomedReaders) == 0 {
		t.Fatalf("direct store must doom transactional readers")
	}
	if len(d.doomedWriters) == 0 {
		t.Fatalf("direct store must doom the transactional writer")
	}
}

func TestDirectLoadDoomsOnlyWriter(t *testing.T) {
	m, d := newTestMem(256)
	a := m.AllocLines(1)
	m.RegisterRead(1, a)
	m.RegisterWrite(2, a) // dooms reader 1 as part of setup
	d.doomedReaders = nil
	d.doomedWriters = nil
	_ = m.DirectLoad(5, a)
	if len(d.doomedWriters) == 0 {
		t.Fatalf("direct load must doom the transactional writer")
	}
	if len(d.doomedReaders) != 0 {
		t.Fatalf("direct load must not doom readers")
	}
}

func TestDirectAccessorCosts(t *testing.T) {
	m, _ := newTestMem(256)
	a := m.AllocLines(1)
	var clock uint64
	d := NewDirect(m, 0, func(c uint64) { clock += c }, 2, 3, 1)
	d.Store(a, 9)
	if clock != 3 {
		t.Fatalf("store cost = %d, want 3", clock)
	}
	if d.Load(a) != 9 {
		t.Fatalf("load returned wrong value")
	}
	if clock != 5 {
		t.Fatalf("load cost = %d, want 2 (total 5)", clock-3)
	}
	d.Work(4)
	if clock != 9 {
		t.Fatalf("work cost = %d, want 4", clock-5)
	}
	if d.ThreadID() != 0 {
		t.Fatalf("ThreadID = %d", d.ThreadID())
	}
}

// TestQuickRegistryConsistency drives the registry with random operations
// and checks invariants: a line has at most one writer; unregistered
// threads leave no residue.
func TestQuickRegistryConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		m, _ := newTestMem(1024)
		base := m.AllocLines(8)
		registered := map[int]map[Line]bool{}
		for _, op := range ops {
			hw := int(op % 8)
			line := Line(int(LineOf(base)) + int(op/8)%8)
			a := Addr(line) * LineWords
			if registered[hw] == nil {
				registered[hw] = map[Line]bool{}
			}
			switch (op / 64) % 3 {
			case 0:
				m.RegisterRead(hw, a)
				registered[hw][line] = true
			case 1:
				m.RegisterWrite(hw, a)
				registered[hw][line] = true
			case 2:
				var lines []Line
				for ln := range registered[hw] {
					lines = append(lines, ln)
				}
				m.Unregister(hw, lines)
				registered[hw] = map[Line]bool{}
			}
		}
		// Invariant: each line's writer, if set, is within range.
		for ln := LineOf(base); ln < LineOf(base)+8; ln++ {
			w := m.LineWriter(ln)
			if w < -1 || w > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRegistryZeroAllocs: registry accesses are the innermost
// loop of every transactional load/store and must stay off the heap at
// wide-machine width — 128 threads, where the reader sets span all four
// topology.Set words.
func TestShardedRegistryZeroAllocs(t *testing.T) {
	m, _ := newTestMem(1 << 12)
	base := m.AllocLines(4)
	lines := []Line{LineOf(base), LineOf(base) + 1}
	if avg := testing.AllocsPerRun(200, func() {
		for hw := 0; hw < 128; hw++ {
			m.RegisterRead(hw, base+Addr(hw%64))
		}
		m.RegisterWrite(3, base+LineWords)
		for hw := 0; hw < 128; hw++ {
			m.Unregister(hw, lines)
		}
	}); avg != 0 {
		t.Fatalf("registry ops allocate %.1f allocs/op, want 0", avg)
	}
}
