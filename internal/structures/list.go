package structures

import "chats/internal/mem"

// List is a sorted singly-linked list in simulated memory. The header
// (one word: head pointer) lives at Head; nodes are 3-word records
// {key, val, next}. A nil pointer is address 0.
type List struct {
	Head mem.Addr
}

// List node field offsets (in words).
const (
	lKey  = 0
	lVal  = 1
	lNext = 2
	// ListNodeWords is the record size for Pool allocation.
	ListNodeWords = 3
)

// NewList allocates an empty list header.
func NewList(al *mem.Allocator) *List {
	return &List{Head: al.LineAligned(1)}
}

// Insert adds key→val in sorted position. Duplicate keys are rejected
// (returns false, node unused). node must come from a Pool.
func (l *List) Insert(m Mem, node mem.Addr, key, val uint64) bool {
	m.Store(node.Plus(lKey), key)
	m.Store(node.Plus(lVal), val)
	s := newSeek(l.Head, key, -1, lNext, false)
	defer seekPool.Put(s)
	m.Walk(l.Head, s)
	if s.found {
		return false
	}
	m.Store(node.Plus(lNext), uint64(s.cur))
	m.Store(s.prev, uint64(node))
	return true
}

// Find returns the value for key.
func (l *List) Find(m Mem, key uint64) (uint64, bool) {
	s := newSeek(l.Head, key, -1, lNext, true)
	defer seekPool.Put(s)
	m.Walk(l.Head, s)
	return s.val, s.found
}

// Update sets the value of an existing key, returning false if absent.
func (l *List) Update(m Mem, key, val uint64) bool {
	s := newSeek(l.Head, key, -1, lNext, false)
	defer seekPool.Put(s)
	m.Walk(l.Head, s)
	if s.found {
		m.Store(s.cur.Plus(lVal), val)
	}
	return s.found
}

// Remove unlinks key, returning its value.
func (l *List) Remove(m Mem, key uint64) (uint64, bool) {
	s := newSeek(l.Head, key, -1, lNext, false)
	defer seekPool.Put(s)
	m.Walk(l.Head, s)
	if !s.found {
		return 0, false
	}
	m.Store(s.prev, m.Load(s.cur.Plus(lNext)))
	return m.Load(s.cur.Plus(lVal)), true
}

// Len counts the nodes.
func (l *List) Len(m Mem) int {
	n := 0
	cur := mem.Addr(m.Load(l.Head))
	for cur != 0 {
		n++
		cur = mem.Addr(m.Load(cur.Plus(lNext)))
	}
	return n
}

// Keys returns the keys in order (setup/check use).
func (l *List) Keys(m Mem) []uint64 {
	var ks []uint64
	cur := mem.Addr(m.Load(l.Head))
	for cur != 0 {
		ks = append(ks, m.Load(cur.Plus(lKey)))
		cur = mem.Addr(m.Load(cur.Plus(lNext)))
	}
	return ks
}
