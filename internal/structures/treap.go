package structures

import (
	"fmt"
	"sync"

	"chats/internal/mem"
)

// Treap is a randomized binary search tree in simulated memory. Its
// rotations write along the access path the way red-black rebalancing
// does, reproducing the intruder/vacation tree-contention pattern with a
// much smaller correctness surface. Nodes are 5-word records
// {key, val, prio, left, right}. Find, Update and Insert run their
// loads as walks (see Insert); Remove suspends a simulated thread on
// every load.
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
// It makes the loads and stores of a recursive insert, in its order,
// but runs each chain of loads as one Mem.Walk, so a simulated thread
// suspends once per chain: once for the descent, and once per climb
// from the new leaf (or a rotation) up to the next rotation or the top.
// The stores between the chains (the new record, a changed child slot,
// a rotation's two links, the root) are the thread's own.
func (t *Treap) Insert(m Mem, node mem.Addr, key, val, prio uint64) bool {
	m.Store(node.Plus(tKey), key)
	m.Store(node.Plus(tVal), val)
	m.Store(node.Plus(tPrio), prio)
	m.Store(node.Plus(tLeft), 0)
	m.Store(node.Plus(tRight), 0)
	w := insertPool.Get().(*inserter)
	defer insertPool.Put(w)
	w.descend(node)
	m.Walk(t.Root, w)
	if w.dup {
		return false
	}
	// up is the subtree the level below hands back: the new node, the
	// child a rotation lifted, or the level's own node.
	up := node
	for i := len(w.path) - 1; i >= 0; i-- {
		s := &w.path[i]
		if up != s.child {
			m.Store(s.cur.Plus(s.dir), uint64(up))
		}
		w.climb(i, up)
		m.Walk(up.Plus(tPrio), w)
		if !w.rotate {
			up = w.up
			break
		}
		i = w.lvl
		s = &w.path[i]
		m.Store(s.cur.Plus(s.dir), uint64(w.inner))
		m.Store(w.lifted.Plus(opposite(s.dir)), uint64(s.cur))
		up = w.lifted
	}
	if up != w.root {
		m.Store(t.Root, uint64(up))
	}
	return true
}

// insertStep is one level of an Insert's descent: the node there, the
// child slot the new key goes down and the pointer loaded from it.
type insertStep struct {
	cur   mem.Addr
	dir   int // tLeft or tRight
	child mem.Addr
}

// inserter is the walker of every Insert. Its descent loads the root,
// then at each level the node's key, the new node's key (reloaded, as
// a recursive insert does) and the child slot the comparison picks,
// recording the path, until a nil slot or an equal key. A climb from
// level lvl loads up's priority and then the level's node's; while
// up's is not above the node's it moves up a level, up becoming that
// node. At the first level where it is above, it loads the rotation's
// two links and stops: the child lifted and the lifted child's inner
// subtree.
type inserter struct {
	node  mem.Addr
	root  mem.Addr
	path  []insertStep
	state uint8
	key   uint64 // the key loaded from the current node
	dup   bool

	lvl    int
	up     mem.Addr
	prio   uint64 // up's priority
	rotate bool
	lifted mem.Addr
	inner  mem.Addr
}

// inserter states: the value just loaded is a child pointer (the root
// first), a node's key, the new node's key, up's priority, the level's
// node's priority, the lifted child or its inner subtree.
const (
	insPtr uint8 = iota
	insKey
	insNewKey
	insUpPrio
	insCurPrio
	insLifted
	insInner
)

func (w *inserter) Next(v uint64) (mem.Addr, bool) {
	switch w.state {
	case insPtr:
		p := mem.Addr(v)
		if n := len(w.path); n > 0 {
			w.path[n-1].child = p
		} else {
			w.root = p
		}
		if p == 0 {
			return 0, false
		}
		w.path = append(w.path, insertStep{cur: p})
		w.state = insKey
		return p.Plus(tKey), true
	case insKey:
		w.key = v
		w.state = insNewKey
		return w.node.Plus(tKey), true
	case insNewKey:
		if v == w.key {
			w.dup = true
			return 0, false
		}
		s := &w.path[len(w.path)-1]
		s.dir = tRight
		if v < w.key {
			s.dir = tLeft
		}
		w.state = insPtr
		return s.cur.Plus(s.dir), true
	case insUpPrio:
		w.prio = v
		w.state = insCurPrio
		return w.path[w.lvl].cur.Plus(tPrio), true
	case insCurPrio:
		s := &w.path[w.lvl]
		if w.prio > v {
			w.state = insLifted
			return s.cur.Plus(s.dir), true
		}
		w.up = s.cur
		if w.lvl--; w.lvl < 0 {
			return 0, false
		}
		w.state = insUpPrio
		return w.up.Plus(tPrio), true
	case insLifted:
		w.lifted = mem.Addr(v)
		w.state = insInner
		return w.lifted.Plus(opposite(w.path[w.lvl].dir)), true
	}
	w.inner = mem.Addr(v)
	w.rotate = true
	return 0, false
}

// descend readies w for an Insert's descent, keeping its path's
// storage.
func (w *inserter) descend(node mem.Addr) {
	*w = inserter{node: node, path: w.path[:0]}
}

// climb readies w for a climb from level lvl, where up is the subtree
// the level below handed back.
func (w *inserter) climb(lvl int, up mem.Addr) {
	w.lvl, w.up, w.rotate, w.state = lvl, up, false, insUpPrio
}

// opposite is the other child slot of dir.
func opposite(dir int) int { return tLeft + tRight - dir }

// insertPool recycles inserters as seekPool recycles seeks; Walk may
// unwind with a transaction abort, so Insert defers the Put before its
// first walk.
var insertPool = sync.Pool{New: func() any { return new(inserter) }}

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
