package structures

import (
	"sync"

	"chats/internal/mem"
)

// seek is the walker of every List and Treap lookup. From a root slot it
// follows node pointers toward key, loading each node's key and then
// the child slot the comparison picks; with wantVal set it also loads
// the found node's value. Both record layouts start {key, val}. A
// negative child offset ends the walk instead: a sorted list stops at
// the first larger key.
type seek struct {
	key     uint64
	lo, hi  int // word offset of the child slot taken when key is below / above a node's key
	wantVal bool
	state   uint8
	found   bool
	prev    mem.Addr // the slot holding cur
	cur     mem.Addr // the node holding key, or the one the walk stopped at (0 at a nil slot)
	val     uint64   // the found node's value, with wantVal
}

// seek states: the value just loaded is a node pointer, a key or the
// found node's value.
const (
	seekPtr uint8 = iota
	seekKey
	seekVal
)

func (s *seek) Next(v uint64) (mem.Addr, bool) {
	switch s.state {
	case seekPtr:
		s.cur = mem.Addr(v)
		if s.cur == 0 {
			return 0, false
		}
		s.state = seekKey
		return s.cur.Plus(lKey), true
	case seekKey:
		child := s.hi
		switch {
		case v == s.key:
			s.found = true
			if !s.wantVal {
				return 0, false
			}
			s.state = seekVal
			return s.cur.Plus(lVal), true
		case s.key < v:
			child = s.lo
		}
		if child < 0 {
			return 0, false
		}
		s.prev = s.cur.Plus(child)
		s.state = seekPtr
		return s.prev, true
	}
	s.val = v
	return 0, false
}

// seekPool recycles walkers: a walker handed to Mem.Walk escapes, and a
// seek runs on every lookup.
var seekPool = sync.Pool{New: func() any { return new(seek) }}

// newSeek takes a walker from root toward key from the pool. Walk may
// unwind with a transaction abort, so callers return it with a deferred
// seekPool.Put registered before the walk.
func newSeek(root mem.Addr, key uint64, lo, hi int, wantVal bool) *seek {
	s := seekPool.Get().(*seek)
	*s = seek{key: key, lo: lo, hi: hi, wantVal: wantVal, prev: root}
	return s
}
