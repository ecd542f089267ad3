package structures

import (
	"sync"

	"chats/internal/mem"
)

// Queue is a bounded FIFO ring buffer in simulated memory — the intruder
// packet queue. Head and tail live on separate lines (the paper's
// "capture" phase contends on the head pointer: a time gap between
// reading and modifying it lets multiple transactions read it
// simultaneously, the starving-writer pathology of Section VII). Push,
// Pop and PopGap each run their loads as one walk, so a simulated
// thread suspends once per op; Len suspends on each of its two loads.
type Queue struct {
	head    mem.Addr // consumer cursor
	tail    mem.Addr // producer cursor
	storage mem.Addr
	cap     uint64
}

// NewQueue allocates a queue with capacity entries.
func NewQueue(al *mem.Allocator, capacity int) *Queue {
	if capacity <= 0 {
		panic("structures: queue capacity must be positive")
	}
	q := &Queue{
		head: al.LineAligned(1),
		tail: al.LineAligned(1),
		cap:  uint64(capacity),
	}
	words := (capacity*mem.WordSize + mem.LineSize - 1) / mem.LineSize * mem.WordsPerLine
	q.storage = al.LineAligned(words)
	return q
}

func (q *Queue) slot(i uint64) mem.Addr {
	return q.storage.Plus(int(i % q.cap))
}

// Push appends v; false when full. Its loads of the tail and then the
// head run as one Mem.Walk.
func (q *Queue) Push(m Mem, v uint64) bool {
	w := q.walker(walkPush)
	defer cursorPool.Put(w)
	m.Walk(q.tail, w)
	if w.t-w.h >= q.cap {
		return false
	}
	m.Store(q.slot(w.t), v)
	m.Store(q.tail, w.t+1)
	return true
}

// Pop removes the oldest element; false when empty.
func (q *Queue) Pop(m Mem) (uint64, bool) { return q.PopGap(m, nil) }

// PopGap is Pop with a compute gap between reading the element and
// advancing the head — the intruder "capture" access pattern where the
// pointer is read by several transactions before any of them commits the
// update. Its loads of the head, the tail and the oldest slot run as one
// Mem.Walk, which stops after the tail when the queue is empty.
func (q *Queue) PopGap(m Mem, gap func()) (uint64, bool) {
	w := q.walker(walkPop)
	defer cursorPool.Put(w)
	m.Walk(q.head, w)
	if w.h == w.t {
		return 0, false
	}
	if gap != nil {
		gap()
	}
	m.Store(q.head, w.h+1)
	return w.v, true
}

// cursors is the walker of every Push and Pop: a push loads the tail and
// then the head; a pop loads the head, the tail and, unless they are
// equal, the head's slot.
type cursors struct {
	q       *Queue
	state   uint8
	h, t, v uint64
}

// cursors states: the value just loaded is a push's tail or head, or a
// pop's head, tail or element.
const (
	walkPush uint8 = iota
	walkPushHead
	walkPop
	walkPopTail
	walkPopVal
)

func (w *cursors) Next(v uint64) (mem.Addr, bool) {
	switch w.state {
	case walkPush:
		w.t = v
		w.state = walkPushHead
		return w.q.head, true
	case walkPushHead:
		w.h = v
		return 0, false
	case walkPop:
		w.h = v
		w.state = walkPopTail
		return w.q.tail, true
	case walkPopTail:
		w.t = v
		if w.h == w.t {
			return 0, false
		}
		w.state = walkPopVal
		return w.q.slot(w.h), true
	}
	w.v = v
	return 0, false
}

// cursorPool recycles cursors as seekPool recycles seeks.
var cursorPool = sync.Pool{New: func() any { return new(cursors) }}

// walker takes a cursors from the pool, starting in state; callers defer
// its Put before the walk, which may unwind with a transaction abort.
func (q *Queue) walker(state uint8) *cursors {
	w := cursorPool.Get().(*cursors)
	*w = cursors{q: q, state: state}
	return w
}

// Len returns the number of queued elements.
func (q *Queue) Len(m Mem) int {
	return int(m.Load(q.tail) - m.Load(q.head))
}

// HeadAddr exposes the head-cursor address (tests and diagnostics).
func (q *Queue) HeadAddr() mem.Addr { return q.head }
