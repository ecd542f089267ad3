package structures

import (
	"fmt"
	"testing"

	"chats/internal/mem"
	"chats/internal/sim"
)

// The reference versions below are Treap.Insert and Queue.Push/PopGap
// as they were before their load chains ran as walks: every load is a
// separate Mem.Load. The walk versions must make exactly their loads
// and stores, in their order. rotateRight and rotateLeft are still
// Remove's, so the reference shares them.

func refInsert(t *Treap, m Mem, node mem.Addr, key, val, prio uint64) bool {
	m.Store(node.Plus(tKey), key)
	m.Store(node.Plus(tVal), val)
	m.Store(node.Plus(tPrio), prio)
	m.Store(node.Plus(tLeft), 0)
	m.Store(node.Plus(tRight), 0)
	root := mem.Addr(m.Load(t.Root))
	newRoot, ok := refInsertRec(m, root, node)
	if newRoot != root {
		m.Store(t.Root, uint64(newRoot))
	}
	return ok
}

func refInsertRec(m Mem, cur, node mem.Addr) (mem.Addr, bool) {
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
		newChild, ok := refInsertRec(m, child, node)
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
	newChild, ok := refInsertRec(m, child, node)
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

func refPush(q *Queue, m Mem, v uint64) bool {
	t := m.Load(q.tail)
	h := m.Load(q.head)
	if t-h >= q.cap {
		return false
	}
	m.Store(q.slot(t), v)
	m.Store(q.tail, t+1)
	return true
}

func refPopGap(q *Queue, m Mem, gap func()) (uint64, bool) {
	h := m.Load(q.head)
	t := m.Load(q.tail)
	if h == t {
		return 0, false
	}
	v := m.Load(q.slot(h))
	if gap != nil {
		gap()
	}
	m.Store(q.head, h+1)
	return v, true
}

// memOp is one access a recorder saw: a load, a store, or the gap of a
// PopGap.
type memOp struct {
	kind byte // 'L', 'S' or 'G'
	addr mem.Addr
	val  uint64
}

func (o memOp) String() string { return fmt.Sprintf("%c %v %d", o.kind, o.addr, o.val) }

// recorder is a Direct that records every access, expanding each Walk
// into the loads it makes.
type recorder struct {
	d   Direct
	ops []memOp
}

func (r *recorder) Load(a mem.Addr) uint64 {
	v := r.d.Load(a)
	r.ops = append(r.ops, memOp{'L', a, v})
	return v
}

func (r *recorder) Store(a mem.Addr, v uint64) {
	r.d.Store(a, v)
	r.ops = append(r.ops, memOp{'S', a, v})
}

func (r *recorder) Walk(first mem.Addr, w mem.Walker) {
	for a, more := first, true; more; {
		a, more = w.Next(r.Load(a))
	}
}

func (r *recorder) gap() { r.ops = append(r.ops, memOp{kind: 'G'}) }

// take returns the ops recorded since the last take.
func (r *recorder) take() []memOp {
	ops := r.ops
	r.ops = nil
	return ops
}

// pair is two identical memories, one for the reference and one for
// the walk version of each op; their allocators hand out the same
// addresses.
type pair struct {
	refMem, walkMem recorder
	refAl           *mem.Allocator
	walkAl          *mem.Allocator
}

func newPair() *pair {
	p := &pair{}
	p.refMem.d, p.refAl = testMem()
	p.walkMem.d, p.walkAl = testMem()
	return p
}

// same fails t unless both memories recorded the same ops since the
// last call.
func (p *pair) same(t *testing.T, what string) {
	t.Helper()
	ref, walk := p.refMem.take(), p.walkMem.take()
	if len(ref) != len(walk) {
		t.Fatalf("%s: %d ops, reference %d\nwalk: %v\nref:  %v", what, len(walk), len(ref), walk, ref)
	}
	for i := range ref {
		if ref[i] != walk[i] {
			t.Fatalf("%s: op %d is %v, reference %v", what, i, walk[i], ref[i])
		}
	}
}

// treapPair is a treap in each memory of a pair.
type treapPair struct {
	*pair
	ref, walk         *Treap
	refPool, walkPool *Pool
}

func newTreapPair(n int) *treapPair {
	p := newPair()
	return &treapPair{
		pair: p,
		ref:  NewTreap(p.refAl), walk: NewTreap(p.walkAl),
		refPool: NewPool(p.refAl, n, TreapNodeWords), walkPool: NewPool(p.walkAl, n, TreapNodeWords),
	}
}

// insert runs one Insert both ways and fails t unless the results and
// the recorded ops agree.
func (tp *treapPair) insert(t *testing.T, key, prio uint64) bool {
	t.Helper()
	ok := tp.walk.Insert(&tp.walkMem, tp.walkPool.Get(), key, key*3, prio)
	refOK := refInsert(tp.ref, &tp.refMem, tp.refPool.Get(), key, key*3, prio)
	if ok != refOK {
		t.Fatalf("Insert(%d, prio %d) = %v, reference %v", key, prio, ok, refOK)
	}
	tp.same(t, fmt.Sprintf("Insert(%d, prio %d)", key, prio))
	return ok
}

// poke writes v at the word off of the record holding key in both
// treaps, outside the recording.
func (tp *treapPair) poke(t *testing.T, key uint64, off int, v uint64) {
	t.Helper()
	for _, side := range []struct {
		tr *Treap
		d  Direct
	}{{tp.ref, tp.refMem.d}, {tp.walk, tp.walkMem.d}} {
		s := newSeek(side.tr.Root, key, tLeft, tRight, false)
		side.d.Walk(side.tr.Root, s)
		if !s.found {
			t.Fatalf("key %d not in the treap", key)
		}
		side.d.Store(s.cur.Plus(off), v)
	}
}

// An Insert made of walks makes the loads and stores of the recursive
// one, in its order, with its result: on random treaps with duplicate
// keys and tied priorities, and on treaps whose heap order is broken,
// as values forwarded to a speculative reader can make it, so that a
// climb passes levels and then rotates.
func TestInsertOpsMatchRecursive(t *testing.T) {
	prios := map[string]func(r *sim.Rand) uint64{
		"random":      func(r *sim.Rand) uint64 { return r.Uint64() },
		"small-range": func(r *sim.Rand) uint64 { return r.Uint64n(3) },
		"all-equal":   func(*sim.Rand) uint64 { return 7 },
	}
	for name, prio := range prios {
		for seed := uint64(1); seed <= 20; seed++ {
			r := sim.NewRand(seed)
			tp := newTreapPair(400)
			var keys []uint64
			for i := 0; i < 150; i++ {
				key := r.Uint64n(100) + 1
				if tp.insert(t, key, prio(r)) {
					keys = append(keys, key)
				}
			}
			// Break the heap order at random nodes, then insert more.
			for i := 0; i < 20; i++ {
				tp.poke(t, keys[r.Intn(len(keys))], tPrio, r.Uint64())
			}
			for i := 0; i < 100; i++ {
				tp.insert(t, r.Uint64n(200)+1, prio(r))
			}
			got, want := lineImage(tp.walkMem.d.M), lineImage(tp.refMem.d.M)
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d lines written, reference %d", name, seed, len(got), len(want))
			}
			for a, l := range want {
				if got[a] != l {
					t.Fatalf("%s seed %d: line %v = %v, reference %v", name, seed, a, got[a], l)
				}
			}
		}
	}
}

// A climb that passes a level and rotates at the next: key 5's
// priority is above its parent's, so inserting 7 below it lifts 5 over
// the root.
func TestInsertClimbRotatesAboveAPassedLevel(t *testing.T) {
	tp := newTreapPair(8)
	tp.insert(t, 10, 5)
	tp.insert(t, 5, 1)
	tp.poke(t, 5, tPrio, 9)
	oldRoot := tp.walkMem.d.Load(tp.walk.Root)
	tp.insert(t, 7, 2)
	if tp.walkMem.d.Load(tp.walk.Root) == oldRoot {
		t.Fatal("the climb did not rotate at the root")
	}
}

// Push and Pop made of walks make the loads and stores of load-by-load
// ones, with the gap in its place: on an empty queue, a full one and
// one whose cursors have wrapped past its capacity.
func TestQueueOpsMatchLoads(t *testing.T) {
	p := newPair()
	ref, walk := NewQueue(p.refAl, 4), NewQueue(p.walkAl, 4)
	push := func(v uint64) bool {
		t.Helper()
		ok, refOK := walk.Push(&p.walkMem, v), refPush(ref, &p.refMem, v)
		if ok != refOK {
			t.Fatalf("Push(%d) = %v, reference %v", v, ok, refOK)
		}
		p.same(t, fmt.Sprintf("Push(%d)", v))
		return ok
	}
	pop := func(gap bool) (uint64, bool) {
		t.Helper()
		var wg, rg func()
		if gap {
			wg, rg = p.walkMem.gap, p.refMem.gap
		}
		v, ok := walk.PopGap(&p.walkMem, wg)
		rv, rok := refPopGap(ref, &p.refMem, rg)
		if v != rv || ok != rok {
			t.Fatalf("PopGap = %d %v, reference %d %v", v, ok, rv, rok)
		}
		p.same(t, "PopGap")
		return v, ok
	}
	if _, ok := pop(true); ok {
		t.Fatal("pop from an empty queue")
	}
	for round := uint64(0); round < 5; round++ {
		for i := uint64(1); push(round*10 + i); i++ {
		}
		for i := 0; i < 3; i++ {
			pop(i%2 == 0)
		}
	}
	for _, ok := pop(false); ok; _, ok = pop(true) {
	}
	if h := p.walkMem.d.Load(walk.HeadAddr()); h <= walk.cap {
		t.Fatalf("head cursor %d never wrapped past capacity %d", h, walk.cap)
	}
	// Pop without a gap is PopGap(nil).
	push(99)
	v, ok := walk.Pop(&p.walkMem)
	rv, rok := refPopGap(ref, &p.refMem, nil)
	if v != rv || ok != rok || v != 99 {
		t.Fatalf("Pop = %d %v, reference %d %v", v, ok, rv, rok)
	}
	p.same(t, "Pop")
}
