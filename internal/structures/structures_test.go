package structures

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"chats/internal/mem"
	"chats/internal/sim"
)

func testMem() (Direct, *mem.Allocator) {
	return Direct{M: mem.NewMemory()}, mem.NewAllocator(0x1000)
}

func TestListBasic(t *testing.T) {
	m, al := testMem()
	pool := NewPool(al, 16, ListNodeWords)
	l := NewList(al)
	for _, k := range []uint64{5, 1, 9, 3} {
		if !l.Insert(m, pool.Get(), k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if l.Insert(m, pool.Get(), 5, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	ks := l.Keys(m)
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("keys = %v", ks)
		}
	}
	if v, ok := l.Find(m, 9); !ok || v != 90 {
		t.Fatalf("find 9 = %d %v", v, ok)
	}
	if _, ok := l.Find(m, 4); ok {
		t.Fatal("phantom find")
	}
	if !l.Update(m, 3, 99) {
		t.Fatal("update failed")
	}
	if v, _ := l.Find(m, 3); v != 99 {
		t.Fatal("update not visible")
	}
	if v, ok := l.Remove(m, 5); !ok || v != 50 {
		t.Fatalf("remove = %d %v", v, ok)
	}
	if _, ok := l.Remove(m, 5); ok {
		t.Fatal("double remove")
	}
	if l.Len(m) != 3 {
		t.Fatalf("len = %d", l.Len(m))
	}
}

// Property: the list agrees with a map model under random ops.
func TestListModel(t *testing.T) {
	f := func(ops []uint16) bool {
		m, al := testMem()
		pool := NewPool(al, len(ops)+1, ListNodeWords)
		l := NewList(al)
		model := map[uint64]uint64{}
		for i, op := range ops {
			key := uint64(op % 32)
			val := uint64(i)
			switch op % 3 {
			case 0:
				_, exists := model[key]
				if l.Insert(m, pool.Get(), key, val) == exists {
					return false
				}
				if !exists {
					model[key] = val
				}
			case 1:
				v, ok := l.Find(m, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 2:
				v, ok := l.Remove(m, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
				delete(model, key)
			}
		}
		if l.Len(m) != len(model) {
			return false
		}
		ks := l.Keys(m)
		return sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashSetBasic(t *testing.T) {
	m, al := testMem()
	pool := NewPool(al, 128, ListNodeWords)
	h := NewHashSet(al, 16)
	for i := uint64(0); i < 100; i++ {
		if !h.Insert(m, pool.Get(), i, i*2) {
			t.Fatalf("insert %d", i)
		}
	}
	if h.Insert(m, pool.Get(), 50, 0) {
		t.Fatal("duplicate accepted")
	}
	if h.Len(m) != 100 {
		t.Fatalf("len = %d", h.Len(m))
	}
	for i := uint64(0); i < 100; i++ {
		if v, ok := h.Find(m, i); !ok || v != i*2 {
			t.Fatalf("find %d = %d %v", i, v, ok)
		}
	}
	if _, ok := h.Find(m, 1000); ok {
		t.Fatal("phantom")
	}
	if v, ok := h.Remove(m, 42); !ok || v != 84 {
		t.Fatal("remove")
	}
	if h.Len(m) != 99 {
		t.Fatal("len after remove")
	}
	if !h.Update(m, 10, 7) {
		t.Fatal("update")
	}
	if v, _ := h.Find(m, 10); v != 7 {
		t.Fatal("update not visible")
	}
}

func TestHashSetBadBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, al := testMem()
	NewHashSet(al, 10)
}

func TestTreapBasic(t *testing.T) {
	m, al := testMem()
	pool := NewPool(al, 256, TreapNodeWords)
	tr := NewTreap(al)
	r := sim.NewRand(3)
	keys := r.Perm(200)
	for _, k := range keys {
		if !tr.Insert(m, pool.Get(), uint64(k)+1, uint64(k*3), r.Uint64()) {
			t.Fatalf("insert %d", k)
		}
	}
	if tr.Insert(m, pool.Get(), 5, 0, 1) {
		t.Fatal("duplicate accepted")
	}
	if n := treapLen(t, m, tr); n != 200 {
		t.Fatalf("size = %d", n)
	}
	for _, k := range keys {
		if v, ok := tr.Find(m, uint64(k)+1); !ok || v != uint64(k*3) {
			t.Fatalf("find %d = %d %v", k, v, ok)
		}
	}
	// Remove half.
	for _, k := range keys[:100] {
		if v, ok := tr.Remove(m, uint64(k)+1); !ok || v != uint64(k*3) {
			t.Fatalf("remove %d = %d %v", k, v, ok)
		}
	}
	if n := treapLen(t, m, tr); n != 100 {
		t.Fatalf("size after removes = %d", n)
	}
	for _, k := range keys[:100] {
		if _, ok := tr.Find(m, uint64(k)+1); ok {
			t.Fatalf("removed key %d still present", k)
		}
	}
	for _, k := range keys[100:] {
		if _, ok := tr.Find(m, uint64(k)+1); !ok {
			t.Fatalf("surviving key %d lost", k)
		}
	}
}

// treapLen counts the treap's nodes with Scan, failing the test if Scan
// finds a broken invariant.
func treapLen(t *testing.T, m Mem, tr *Treap) int {
	t.Helper()
	n := 0
	if err := tr.Scan(m, func(_, _ uint64) { n++ }); err != nil {
		t.Fatal(err)
	}
	return n
}

// scanMatches reports whether Scan yields exactly model's keys and values
// in ascending key order, with BST and heap order intact.
func scanMatches(m Mem, tr *Treap, model map[uint64]uint64) error {
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	var bad error
	err := tr.Scan(m, func(k, v uint64) {
		switch {
		case bad != nil:
		case i >= len(keys):
			bad = fmt.Errorf("scan yields extra key %d", k)
		case k != keys[i] || v != model[k]:
			bad = fmt.Errorf("scan yields %d=%d at position %d; want %d=%d", k, v, i, keys[i], model[keys[i]])
		}
		i++
	})
	switch {
	case err != nil:
		return err
	case bad != nil:
		return bad
	case i != len(keys):
		return fmt.Errorf("scan yields %d keys; want %d", i, len(keys))
	}
	return nil
}

// Property: treap matches a map model and keeps its invariants.
func TestTreapModel(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		m, al := testMem()
		pool := NewPool(al, len(ops)+1, TreapNodeWords)
		tr := NewTreap(al)
		r := sim.NewRand(seed)
		model := map[uint64]uint64{}
		for i, op := range ops {
			key := uint64(op%64) + 1
			val := uint64(i)
			switch op % 3 {
			case 0:
				_, exists := model[key]
				if tr.Insert(m, pool.Get(), key, val, r.Uint64()) == exists {
					return false
				}
				if !exists {
					model[key] = val
				}
			case 1:
				v, ok := tr.Find(m, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 2:
				v, ok := tr.Remove(m, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					return false
				}
				delete(model, key)
			}
		}
		return scanMatches(m, tr, model) == nil
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQueueBasic(t *testing.T) {
	m, al := testMem()
	q := NewQueue(al, 4)
	if _, ok := q.Pop(m); ok {
		t.Fatal("pop from empty")
	}
	for i := uint64(1); i <= 4; i++ {
		if !q.Push(m, i) {
			t.Fatalf("push %d", i)
		}
	}
	if q.Push(m, 5) {
		t.Fatal("push to full")
	}
	if q.Len(m) != 4 {
		t.Fatalf("len = %d", q.Len(m))
	}
	for i := uint64(1); i <= 4; i++ {
		v, ok := q.Pop(m)
		if !ok || v != i {
			t.Fatalf("pop = %d %v, want %d", v, ok, i)
		}
	}
	// Wrap-around.
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 3; i++ {
			q.Push(m, i+uint64(round)*10)
		}
		for i := uint64(0); i < 3; i++ {
			v, ok := q.Pop(m)
			if !ok || v != i+uint64(round)*10 {
				t.Fatalf("wrap pop = %d %v", v, ok)
			}
		}
	}
}

func TestQueuePopGap(t *testing.T) {
	m, al := testMem()
	q := NewQueue(al, 8)
	q.Push(m, 42)
	called := false
	v, ok := q.PopGap(m, func() { called = true })
	if !ok || v != 42 || !called {
		t.Fatal("PopGap broken")
	}
	if _, ok := q.PopGap(m, nil); ok {
		t.Fatal("PopGap from empty")
	}
}

func TestPool(t *testing.T) {
	_, al := testMem()
	p := NewPool(al, 3, 5)
	a := p.Get()
	b := p.Get()
	if a == b || a == 0 || uint64(a)%mem.LineSize != 0 {
		t.Fatal("pool records wrong")
	}
	if p.Remaining() != 1 {
		t.Fatal("remaining wrong")
	}
	p.Get()
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	p.Get()
}

// lineImage is every written line of a memory, by address.
func lineImage(m *mem.Memory) map[mem.Addr]mem.Line {
	img := map[mem.Addr]mem.Line{}
	m.ForEachLine(func(a mem.Addr, l mem.Line) { img[a] = l })
	return img
}

// Build must leave the memory image of n Inserts in key order: the same
// words on every line, the same written lines and the same Touched
// count, also when priorities tie. Under -race the largest case is
// 1,024 nodes: the equal-priority stream builds a right chain, whose
// inserts are quadratic in n, and the race detector instruments every
// step (8,192 nodes take ~30 s there).
func TestTreapBuildMatchesInserts(t *testing.T) {
	big := 8192
	if raceEnabled {
		big = 1024
	}
	streams := map[string]func(r *sim.Rand) uint64{
		"random":      func(r *sim.Rand) uint64 { return r.Uint64() },
		"all-equal":   func(*sim.Rand) uint64 { return 7 },
		"small-range": func(r *sim.Rand) uint64 { return r.Uint64n(3) },
	}
	for name, prio := range streams {
		for _, n := range []int{0, 1, 2, 3, 17, big} {
			key := func(i int) uint64 { return uint64(2*i + 1) }
			ins, insAl := testMem()
			tr := NewTreap(insAl)
			pool := NewPool(insAl, n, TreapNodeWords)
			r := sim.NewRand(uint64(n))
			for i := 0; i < n; i++ {
				if !tr.Insert(ins, pool.Get(), key(i), key(i)*3, prio(r)) {
					t.Fatalf("%s n=%d: insert %d refused", name, n, i)
				}
			}

			built, builtAl := testMem()
			bt := NewTreap(builtAl)
			r = sim.NewRand(uint64(n))
			bt.Build(built.M, n, func(i int) TreapNode {
				return TreapNode{Addr: builtAl.LineAligned(TreapNodeWords), Key: key(i), Val: key(i) * 3, Prio: prio(r)}
			})

			if bt.Root != tr.Root {
				t.Fatalf("%s n=%d: root header at %v, want %v", name, n, bt.Root, tr.Root)
			}
			if got, want := built.M.Touched(), ins.M.Touched(); got != want {
				t.Fatalf("%s n=%d: Touched = %d, want %d", name, n, got, want)
			}
			got, want := lineImage(built.M), lineImage(ins.M)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d lines written, want %d", name, n, len(got), len(want))
			}
			for a, l := range want {
				if g, ok := got[a]; !ok || g != l {
					t.Fatalf("%s n=%d: line %v = %v (written %v), want %v", name, n, a, g, ok, l)
				}
			}
		}
	}
}

// Scan rejects a broken BST or heap order, and a cycle makes it return
// an error instead of looping.
func TestTreapScanRejectsBrokenOrder(t *testing.T) {
	m, al := testMem()
	tr := NewTreap(al)
	// Equal priorities never lift a node, so keys 1, 2, 3 form a right
	// chain and only key order can expose the corruptions below.
	tr.Build(m.M, 3, func(i int) TreapNode {
		return TreapNode{Addr: al.LineAligned(TreapNodeWords), Key: uint64(i + 1), Prio: 5}
	})
	root := mem.Addr(m.Load(tr.Root))
	mid := mem.Addr(m.Load(root.Plus(tRight)))
	leaf := mem.Addr(m.Load(mid.Plus(tRight)))
	for _, c := range []struct {
		name string
		at   mem.Addr
		val  uint64
	}{
		{"left cycle", root.Plus(tLeft), uint64(root)},
		{"right cycle", leaf.Plus(tRight), uint64(root)},
		{"right keys out of order", mid.Plus(tKey), 4},
		{"node reached twice", leaf.Plus(tLeft), uint64(mid)},
		{"child above parent", mid.Plus(tPrio), 6},
	} {
		old := m.Load(c.at)
		m.Store(c.at, c.val)
		if err := tr.Scan(m, func(_, _ uint64) {}); err == nil {
			t.Errorf("%s: Scan passed", c.name)
		}
		m.Store(c.at, old)
	}
	if n := treapLen(t, m, tr); n != 3 {
		t.Fatalf("size = %d, want 3", n)
	}
}
