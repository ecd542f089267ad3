package structures

import (
	"fmt"

	"chats/internal/mem"
)

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

// TreapNode is one record of Build's input.
type TreapNode struct {
	Addr           mem.Addr // where the record goes; its words must not straddle a line
	Key, Val, Prio uint64
}

// buildFrame is a node on Build's right spine whose line is not yet
// written: a later node may still become its right child.
type buildFrame struct {
	TreapNode
	left, right mem.Addr
}

// Build fills the empty treap t with n records whose keys strictly
// ascend. It calls node(i) once for each i in order and writes each
// record's line once. A treap is unique for its keys and priorities, and
// a new node rotates above only strictly lower priorities, so Build
// leaves the same memory image, word for word, as n Inserts in key
// order would. The root word is written only when n > 0.
func (t *Treap) Build(m *mem.Memory, n int, node func(i int) TreapNode) {
	if m.ReadWord(t.Root) != 0 {
		panic("structures: Build on a non-empty treap")
	}
	// The right spine of random priorities is O(log n) deep; start it
	// on the stack.
	spine := make([]buildFrame, 0, 64)
	for i := 0; i < n; i++ {
		f := buildFrame{TreapNode: node(i)}
		if top := len(spine) - 1; top >= 0 && f.Key <= spine[top].Key {
			panic(fmt.Sprintf("structures: Build keys not ascending: %d after %d", f.Key, spine[top].Key))
		}
		// Lift f above every spine node of strictly lower priority; the
		// highest one lifted becomes its left child.
		for top := len(spine) - 1; top >= 0 && spine[top].Prio < f.Prio; top-- {
			writeTreapNode(m, &spine[top])
			f.left = spine[top].Addr
			spine = spine[:top]
		}
		if top := len(spine) - 1; top >= 0 {
			spine[top].right = f.Addr
		}
		spine = append(spine, f)
	}
	for i := range spine {
		writeTreapNode(m, &spine[i])
	}
	if n > 0 {
		m.WriteWord(t.Root, uint64(spine[0].Addr))
	}
}

// writeTreapNode stores a finished record with one line write, keeping
// the line's other words.
func writeTreapNode(m *mem.Memory, f *buildFrame) {
	w := f.Addr.WordIndex()
	if w+TreapNodeWords > mem.WordsPerLine {
		panic(fmt.Sprintf("structures: treap record at %v straddles a line", f.Addr))
	}
	l := m.ReadLine(f.Addr)
	l[w+tKey], l[w+tVal], l[w+tPrio] = f.Key, f.Val, f.Prio
	l[w+tLeft], l[w+tRight] = uint64(f.left), uint64(f.right)
	m.WriteLine(f.Addr, l)
}

// Scan calls fn with each node's key and value in ascending key order,
// in one traversal. It returns an error, and stops, at the first node
// that breaks BST key order or heap priority order, so a corrupt tree
// (a cycle included) cannot make it loop. Workload checks and tests use
// it.
func (t *Treap) Scan(m Mem, fn func(key, val uint64)) error {
	s := treapScan{m: m, fn: fn}
	return s.walk(mem.Addr(m.Load(t.Root)), ^uint64(0), ^uint64(0))
}

// treapScan is the state of one Scan.
type treapScan struct {
	m       Mem
	fn      func(key, val uint64)
	visited bool   // some node was visited
	last    uint64 // key of the last node visited
}

// walk visits the subtree at a in key order. Its keys must not exceed
// hi and its priorities must not exceed prio. It recurses into left
// children and loops down right ones; a left child's bound is its
// parent's key less one, so every left chain strictly descends.
func (s *treapScan) walk(a mem.Addr, hi, prio uint64) error {
	for a != 0 {
		k := s.m.Load(a.Plus(tKey))
		p := s.m.Load(a.Plus(tPrio))
		if k > hi {
			return fmt.Errorf("treap: key %d at %v above its bound %d", k, a, hi)
		}
		if p > prio {
			return fmt.Errorf("treap: priority %d at %v above its parent's %d", p, a, prio)
		}
		if l := mem.Addr(s.m.Load(a.Plus(tLeft))); l != 0 {
			if k == 0 {
				return fmt.Errorf("treap: key 0 at %v has a left child", a)
			}
			if err := s.walk(l, k-1, p); err != nil {
				return err
			}
		}
		if s.visited && k <= s.last {
			return fmt.Errorf("treap: key %d at %v follows key %d", k, a, s.last)
		}
		s.visited, s.last = true, k
		s.fn(k, s.m.Load(a.Plus(tVal)))
		a, prio = mem.Addr(s.m.Load(a.Plus(tRight))), p
	}
	return nil
}
