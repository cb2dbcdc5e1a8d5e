package tmds

import (
	"seer/internal/mem"
)

// RBTree is a red-black tree keyed by uint64 in simulated memory — the
// analogue of STAMP's rbtree used for vacation's reservation tables.
//
// Node layout (one cache line each, to mirror the allocation behaviour of
// the C benchmarks and bound false sharing):
//
//	[0] key  [1] value  [2] left  [3] right  [4] parent  [5] color
//
// The tree header holds the root pointer on its own line. Addresses use
// mem.Nil (0) as the null pointer; the color of "nil" is black by
// definition and is never stored.
type RBTree struct {
	root  mem.Addr // address of the word holding the root node address
	arena *Arena
}

const (
	rbKey    = 0
	rbVal    = 1
	rbLeft   = 2 // the child on side d is at rbLeft+d
	rbRight  = 3
	rbParent = 4
	rbColor  = 5
	rbSize   = 8 // padded to one line

	red   = 0
	black = 1
)

// A side picks one child of a node; 1-d is the mirror side. Each
// rebalancing case is written once for side d and serves both mirrors.
type side int

const (
	leftSide  side = 0
	rightSide side = 1
)

// NewRBTree builds an empty tree; nodes come from arena.
func NewRBTree(m *mem.Memory, arena *Arena) *RBTree {
	t := &RBTree{arena: arena}
	t.root = m.AllocLines(1)
	m.Poke(t.root, uint64(mem.Nil))
	return t
}

func (t *RBTree) getRoot(acc mem.Access) mem.Addr    { return mem.Addr(acc.Load(t.root)) }
func (t *RBTree) setRoot(acc mem.Access, n mem.Addr) { acc.Store(t.root, uint64(n)) }

func key(acc mem.Access, n mem.Addr) uint64      { return acc.Load(n + rbKey) }
func parent(acc mem.Access, n mem.Addr) mem.Addr { return mem.Addr(acc.Load(n + rbParent)) }
func setParent(acc mem.Access, n, v mem.Addr)    { acc.Store(n+rbParent, uint64(v)) }

func child(acc mem.Access, n mem.Addr, d side) mem.Addr {
	return mem.Addr(acc.Load(n + rbLeft + mem.Addr(d)))
}

func setChild(acc mem.Access, n mem.Addr, d side, v mem.Addr) {
	acc.Store(n+rbLeft+mem.Addr(d), uint64(v))
}

// color of mem.Nil is black.
func color(acc mem.Access, n mem.Addr) uint64 {
	if n == mem.Nil {
		return black
	}
	return acc.Load(n + rbColor)
}

func setColor(acc mem.Access, n mem.Addr, c uint64) {
	if n != mem.Nil {
		acc.Store(n+rbColor, c)
	}
}

// find walks from the root toward k. It returns k's node (mem.Nil when
// absent) and the last node visited before it, the parent a fresh k
// would be linked under.
func (t *RBTree) find(acc mem.Access, k uint64) (n, p mem.Addr) {
	n = t.getRoot(acc)
	for n != mem.Nil {
		nk := key(acc, n)
		if k == nk {
			return n, p
		}
		p = n
		if k < nk {
			n = child(acc, n, leftSide)
		} else {
			n = child(acc, n, rightSide)
		}
	}
	return mem.Nil, p
}

// Get returns the value stored under k.
func (t *RBTree) Get(acc mem.Access, k uint64) (uint64, bool) {
	if n, _ := t.find(acc, k); n != mem.Nil {
		return acc.Load(n + rbVal), true
	}
	return 0, false
}

// Contains reports whether k is present.
func (t *RBTree) Contains(acc mem.Access, k uint64) bool {
	_, ok := t.Get(acc, k)
	return ok
}

// Update overwrites the value of an existing key, reporting whether the
// key was found.
func (t *RBTree) Update(acc mem.Access, k, v uint64) bool {
	n, _ := t.find(acc, k)
	if n != mem.Nil {
		acc.Store(n+rbVal, v)
	}
	return n != mem.Nil
}

// Insert adds k → v, reporting whether k was newly inserted (false means
// the value was updated in place).
func (t *RBTree) Insert(acc mem.Access, k, v uint64) bool {
	n, p := t.find(acc, k)
	if n != mem.Nil {
		acc.Store(n+rbVal, v)
		return false
	}
	fresh := t.arena.AllocAligned(acc, rbSize)
	acc.Store(fresh+rbKey, k)
	acc.Store(fresh+rbVal, v)
	acc.Store(fresh+rbLeft, uint64(mem.Nil))
	acc.Store(fresh+rbRight, uint64(mem.Nil))
	acc.Store(fresh+rbParent, uint64(p))
	acc.Store(fresh+rbColor, red)
	// find read p's key already, but the re-read below is a simulated
	// access the schedule depends on, so it stays.
	if p == mem.Nil {
		t.setRoot(acc, fresh)
	} else if k < key(acc, p) {
		setChild(acc, p, leftSide, fresh)
	} else {
		setChild(acc, p, rightSide, fresh)
	}
	t.insertFixup(acc, fresh)
	return true
}

// rotate turns x down to side d: its child on the mirror side takes its
// place. d = leftSide is a left rotation.
func (t *RBTree) rotate(acc mem.Access, x mem.Addr, d side) {
	y := child(acc, x, 1-d)
	inner := child(acc, y, d)
	setChild(acc, x, 1-d, inner)
	if inner != mem.Nil {
		setParent(acc, inner, x)
	}
	xp := parent(acc, x)
	setParent(acc, y, xp)
	if xp == mem.Nil {
		t.setRoot(acc, y)
	} else if x == child(acc, xp, d) { // not sideOf: this test reads xp's side-d word
		setChild(acc, xp, d, y)
	} else {
		setChild(acc, xp, 1-d, y)
	}
	setChild(acc, y, d, x)
	setParent(acc, x, y)
}

// sideOf returns the side of p that n hangs on, reading only p's left
// child word.
func sideOf(acc mem.Access, p, n mem.Addr) side {
	if n == child(acc, p, leftSide) {
		return leftSide
	}
	return rightSide
}

func (t *RBTree) insertFixup(acc mem.Access, z mem.Addr) {
	for {
		p := parent(acc, z)
		if p == mem.Nil || color(acc, p) == black {
			break
		}
		g := parent(acc, p)
		d := sideOf(acc, g, p) // p hangs on side d of g, the uncle u on 1-d
		u := child(acc, g, 1-d)
		if color(acc, u) == red {
			setColor(acc, p, black)
			setColor(acc, u, black)
			setColor(acc, g, red)
			z = g
			continue
		}
		if z == child(acc, p, 1-d) {
			z = p
			t.rotate(acc, z, d)
			p = parent(acc, z)
			g = parent(acc, p)
		}
		setColor(acc, p, black)
		setColor(acc, g, red)
		t.rotate(acc, g, 1-d)
	}
	setColor(acc, t.getRoot(acc), black)
}

// minimum returns the leftmost node of the subtree rooted at n.
func minimum(acc mem.Access, n mem.Addr) mem.Addr {
	for {
		l := child(acc, n, leftSide)
		if l == mem.Nil {
			return n
		}
		n = l
	}
}

// transplant replaces subtree u by subtree v (v may be Nil; CLRS-style
// with explicit parent tracking instead of a sentinel).
func (t *RBTree) transplant(acc mem.Access, u, v mem.Addr) {
	up := parent(acc, u)
	if up == mem.Nil {
		t.setRoot(acc, v)
	} else {
		setChild(acc, up, sideOf(acc, up, u), v)
	}
	if v != mem.Nil {
		setParent(acc, v, up)
	}
}

// Delete removes k, reporting whether it was present. Nodes are unlinked,
// not reclaimed.
func (t *RBTree) Delete(acc mem.Access, k uint64) bool {
	z, _ := t.find(acc, k)
	if z == mem.Nil {
		return false
	}

	y := z
	yOrigColor := color(acc, y)
	var x, xParent mem.Addr
	if child(acc, z, leftSide) == mem.Nil {
		x = child(acc, z, rightSide)
		xParent = parent(acc, z)
		t.transplant(acc, z, x)
	} else if child(acc, z, rightSide) == mem.Nil {
		x = child(acc, z, leftSide)
		xParent = parent(acc, z)
		t.transplant(acc, z, x)
	} else {
		y = minimum(acc, child(acc, z, rightSide))
		yOrigColor = color(acc, y)
		x = child(acc, y, rightSide)
		if parent(acc, y) == z {
			xParent = y
		} else {
			xParent = parent(acc, y)
			t.transplant(acc, y, x)
			zr := child(acc, z, rightSide)
			setChild(acc, y, rightSide, zr)
			setParent(acc, zr, y)
		}
		t.transplant(acc, z, y)
		zl := child(acc, z, leftSide)
		setChild(acc, y, leftSide, zl)
		setParent(acc, zl, y)
		setColor(acc, y, color(acc, z))
	}
	if yOrigColor == black {
		t.deleteFixup(acc, x, xParent)
	}
	return true
}

// deleteFixup restores red-black properties after deletion; x may be Nil,
// so its parent is tracked explicitly. w is x's sibling; its near child
// is on side d (x's side), its far child on 1-d.
func (t *RBTree) deleteFixup(acc mem.Access, x, xParent mem.Addr) {
	for x != t.getRoot(acc) && color(acc, x) == black {
		if xParent == mem.Nil {
			break
		}
		d := sideOf(acc, xParent, x)
		w := child(acc, xParent, 1-d)
		if color(acc, w) == red {
			setColor(acc, w, black)
			setColor(acc, xParent, red)
			t.rotate(acc, xParent, d)
			w = child(acc, xParent, 1-d)
		}
		if color(acc, child(acc, w, d)) == black && color(acc, child(acc, w, 1-d)) == black {
			setColor(acc, w, red)
			x = xParent
			xParent = parent(acc, x)
			continue
		}
		if color(acc, child(acc, w, 1-d)) == black {
			setColor(acc, child(acc, w, d), black)
			setColor(acc, w, red)
			t.rotate(acc, w, 1-d)
			w = child(acc, xParent, 1-d)
		}
		setColor(acc, w, color(acc, xParent))
		setColor(acc, xParent, black)
		setColor(acc, child(acc, w, 1-d), black)
		t.rotate(acc, xParent, d)
		x = t.getRoot(acc)
		xParent = mem.Nil
	}
	setColor(acc, x, black)
}

// Len counts the stored keys (validation helper; full walk).
func (t *RBTree) Len(acc mem.Access) int {
	return t.countFrom(acc, t.getRoot(acc))
}

func (t *RBTree) countFrom(acc mem.Access, n mem.Addr) int {
	if n == mem.Nil {
		return 0
	}
	return 1 + t.countFrom(acc, child(acc, n, leftSide)) + t.countFrom(acc, child(acc, n, rightSide))
}

// Keys appends all keys in ascending order (validation helper).
func (t *RBTree) Keys(acc mem.Access, dst []uint64) []uint64 {
	return t.keysFrom(acc, t.getRoot(acc), dst)
}

func (t *RBTree) keysFrom(acc mem.Access, n mem.Addr, dst []uint64) []uint64 {
	if n == mem.Nil {
		return dst
	}
	dst = t.keysFrom(acc, child(acc, n, leftSide), dst)
	dst = append(dst, key(acc, n))
	return t.keysFrom(acc, child(acc, n, rightSide), dst)
}

// CheckInvariants verifies the red-black properties (root black, no red
// node with a red child, equal black height on every path, BST ordering)
// and returns a descriptive error string ("" if valid). Test helper.
func (t *RBTree) CheckInvariants(acc mem.Access) string {
	root := t.getRoot(acc)
	if root == mem.Nil {
		return ""
	}
	if color(acc, root) != black {
		return "root is red"
	}
	_, msg := t.check(acc, root, 0, ^uint64(0), true)
	return msg
}

// check returns (blackHeight, problem) for the subtree at n, validating
// keys within (lo, hi) bounds; useLo/hi encoded via sentinel handling.
func (t *RBTree) check(acc mem.Access, n mem.Addr, lo, hi uint64, loOpen bool) (int, string) {
	if n == mem.Nil {
		return 1, ""
	}
	k := key(acc, n)
	if !loOpen && k <= lo {
		return 0, "BST order violated (left bound)"
	}
	if k >= hi && hi != ^uint64(0) {
		return 0, "BST order violated (right bound)"
	}
	c := color(acc, n)
	l, r := child(acc, n, leftSide), child(acc, n, rightSide)
	if c == red {
		if color(acc, l) == red || color(acc, r) == red {
			return 0, "red node with red child"
		}
	}
	if l != mem.Nil && parent(acc, l) != n {
		return 0, "left child has wrong parent"
	}
	if r != mem.Nil && parent(acc, r) != n {
		return 0, "right child has wrong parent"
	}
	lh, msg := t.check(acc, l, lo, k, loOpen)
	if msg != "" {
		return 0, msg
	}
	rh, msg := t.check(acc, r, k, hi, false)
	if msg != "" {
		return 0, msg
	}
	if lh != rh {
		return 0, "black height mismatch"
	}
	if c == black {
		lh++
	}
	return lh, ""
}
