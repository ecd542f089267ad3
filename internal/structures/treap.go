package structures

import "chats/internal/mem"

// Treap is a randomized binary search tree in simulated memory. Its
// rotations write along the access path the way red-black rebalancing
// does, reproducing the intruder/vacation tree-contention pattern with a
// much smaller correctness surface. Nodes are 5-word records
// {key, val, prio, left, right}.
type Treap struct {
	Root mem.Addr // one-word header holding the root pointer
}

// Treap node field offsets (in words).
const (
	tKey   = lKey // seek reads lists and treaps alike
	tVal   = lVal
	tPrio  = 2
	tLeft  = 3
	tRight = 4
	// TreapNodeWords is the record size for Pool allocation.
	TreapNodeWords = 5
)

// NewTreap allocates an empty treap header.
func NewTreap(al *mem.Allocator) *Treap {
	return &Treap{Root: al.LineAligned(1)}
}

// Insert adds key→val with rotation priority prio; false on duplicate.
func (t *Treap) Insert(m Mem, node mem.Addr, key, val, prio uint64) bool {
	m.Store(node.Plus(tKey), key)
	m.Store(node.Plus(tVal), val)
	m.Store(node.Plus(tPrio), prio)
	m.Store(node.Plus(tLeft), 0)
	m.Store(node.Plus(tRight), 0)
	root := mem.Addr(m.Load(t.Root))
	newRoot, ok := insertRec(m, root, node)
	if newRoot != root {
		m.Store(t.Root, uint64(newRoot))
	}
	return ok
}

func insertRec(m Mem, cur, node mem.Addr) (mem.Addr, bool) {
	if cur == 0 {
		return node, true
	}
	ck := m.Load(cur.Plus(tKey))
	nk := m.Load(node.Plus(tKey))
	if nk == ck {
		return cur, false
	}
	if nk < ck {
		child := mem.Addr(m.Load(cur.Plus(tLeft)))
		newChild, ok := insertRec(m, child, node)
		if !ok {
			return cur, false
		}
		if newChild != child {
			m.Store(cur.Plus(tLeft), uint64(newChild))
		}
		if m.Load(newChild.Plus(tPrio)) > m.Load(cur.Plus(tPrio)) {
			return rotateRight(m, cur), true
		}
		return cur, true
	}
	child := mem.Addr(m.Load(cur.Plus(tRight)))
	newChild, ok := insertRec(m, child, node)
	if !ok {
		return cur, false
	}
	if newChild != child {
		m.Store(cur.Plus(tRight), uint64(newChild))
	}
	if m.Load(newChild.Plus(tPrio)) > m.Load(cur.Plus(tPrio)) {
		return rotateLeft(m, cur), true
	}
	return cur, true
}

// rotateRight lifts cur's left child above cur and returns it.
func rotateRight(m Mem, cur mem.Addr) mem.Addr {
	l := mem.Addr(m.Load(cur.Plus(tLeft)))
	m.Store(cur.Plus(tLeft), m.Load(l.Plus(tRight)))
	m.Store(l.Plus(tRight), uint64(cur))
	return l
}

// rotateLeft lifts cur's right child above cur and returns it.
func rotateLeft(m Mem, cur mem.Addr) mem.Addr {
	r := mem.Addr(m.Load(cur.Plus(tRight)))
	m.Store(cur.Plus(tRight), m.Load(r.Plus(tLeft)))
	m.Store(r.Plus(tLeft), uint64(cur))
	return r
}

// Find returns the value stored under key.
func (t *Treap) Find(m Mem, key uint64) (uint64, bool) {
	s := newSeek(t.Root, key, tLeft, tRight, true)
	defer seekPool.Put(s)
	m.Walk(t.Root, s)
	return s.val, s.found
}

// Update overwrites the value of an existing key.
func (t *Treap) Update(m Mem, key, val uint64) bool {
	s := newSeek(t.Root, key, tLeft, tRight, false)
	defer seekPool.Put(s)
	m.Walk(t.Root, s)
	if s.found {
		m.Store(s.cur.Plus(tVal), val)
	}
	return s.found
}

// Remove deletes key by rotating its node down to a leaf.
func (t *Treap) Remove(m Mem, key uint64) (uint64, bool) {
	root := mem.Addr(m.Load(t.Root))
	newRoot, val, ok := removeRec(m, root, key)
	if ok && newRoot != root {
		m.Store(t.Root, uint64(newRoot))
	}
	return val, ok
}

func removeRec(m Mem, cur mem.Addr, key uint64) (mem.Addr, uint64, bool) {
	if cur == 0 {
		return 0, 0, false
	}
	ck := m.Load(cur.Plus(tKey))
	switch {
	case key < ck:
		child := mem.Addr(m.Load(cur.Plus(tLeft)))
		newChild, v, ok := removeRec(m, child, key)
		if ok && newChild != child {
			m.Store(cur.Plus(tLeft), uint64(newChild))
		}
		return cur, v, ok
	case key > ck:
		child := mem.Addr(m.Load(cur.Plus(tRight)))
		newChild, v, ok := removeRec(m, child, key)
		if ok && newChild != child {
			m.Store(cur.Plus(tRight), uint64(newChild))
		}
		return cur, v, ok
	}
	// Found: rotate down until a child slot is free.
	val := m.Load(cur.Plus(tVal))
	l := mem.Addr(m.Load(cur.Plus(tLeft)))
	r := mem.Addr(m.Load(cur.Plus(tRight)))
	switch {
	case l == 0:
		return r, val, true
	case r == 0:
		return l, val, true
	case m.Load(l.Plus(tPrio)) > m.Load(r.Plus(tPrio)):
		top := rotateRight(m, cur)
		sub, v, _ := removeRec(m, mem.Addr(m.Load(top.Plus(tRight))), key)
		m.Store(top.Plus(tRight), uint64(sub))
		return top, v, true
	default:
		top := rotateLeft(m, cur)
		sub, v, _ := removeRec(m, mem.Addr(m.Load(top.Plus(tLeft))), key)
		m.Store(top.Plus(tLeft), uint64(sub))
		return top, v, true
	}
}

// Size counts nodes (setup/check use).
func (t *Treap) Size(m Mem) int {
	var count func(mem.Addr) int
	count = func(a mem.Addr) int {
		if a == 0 {
			return 0
		}
		return 1 + count(mem.Addr(m.Load(a.Plus(tLeft)))) + count(mem.Addr(m.Load(a.Plus(tRight))))
	}
	return count(mem.Addr(m.Load(t.Root)))
}

// checkOrder verifies BST key order and heap priority order; used by
// tests and workload Check functions.
func (t *Treap) CheckInvariants(m Mem) bool {
	var walk func(a mem.Addr, lo, hi uint64) bool
	walk = func(a mem.Addr, lo, hi uint64) bool {
		if a == 0 {
			return true
		}
		k := m.Load(a.Plus(tKey))
		if k < lo || k > hi {
			return false
		}
		p := m.Load(a.Plus(tPrio))
		for _, c := range []mem.Addr{mem.Addr(m.Load(a.Plus(tLeft))), mem.Addr(m.Load(a.Plus(tRight)))} {
			if c != 0 && m.Load(c.Plus(tPrio)) > p {
				return false
			}
		}
		var lok, rok bool
		if k == 0 {
			lok = mem.Addr(m.Load(a.Plus(tLeft))) == 0
		} else {
			lok = walk(mem.Addr(m.Load(a.Plus(tLeft))), lo, k-1)
		}
		rok = walk(mem.Addr(m.Load(a.Plus(tRight))), k+1, hi)
		return lok && rok
	}
	return walk(mem.Addr(m.Load(t.Root)), 0, ^uint64(0))
}
