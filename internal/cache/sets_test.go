package cache

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"chats/internal/mem"
)

// TestEntrySize pins the read stamp into the padding after the flags:
// adding it must not grow an entry.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 88 {
		t.Fatalf("sizeof(Entry) = %d, want 88", n)
	}
}

// TestReadWriteSets: membership is by line, the read and write sets are
// independent, and ResetReads plus a gang operation empty both.
func TestReadWriteSets(t *testing.T) {
	c := New(4*1024, 4)
	_, _, r := c.Insert(0x40, Shared, mem.Line{})
	_, _, w := c.Insert(0x80, Modified, mem.Line{})
	c.MarkRead(r)
	c.MarkSM(w)
	if !c.Reads(0x44) || c.Reads(0x80) || !c.Writes(0x9f) || c.Writes(0x40) {
		t.Fatal("set membership wrong")
	}
	if got := c.AppendReads(nil); !slices.Equal(got, []mem.Addr{0x40}) {
		t.Fatalf("AppendReads = %v", got)
	}
	if got := c.AppendSM([]mem.Addr{1}); !slices.Equal(got, []mem.Addr{1, 0x80}) {
		t.Fatalf("AppendSM = %v", got)
	}
	c.ResetReads()
	c.GangInvalidateSM()
	if c.Reads(0x40) || c.Writes(0x80) || c.AppendReads(nil) != nil || c.AppendSM(nil) != nil {
		t.Fatal("sets survived reset and gang invalidation")
	}
}

// TestReadSetSurvivesRemoval: a read line stays in the read set when
// replacement, Invalidate or GangInvalidateSM removes it, and when it
// comes back; ResetReads forgets it.
func TestReadSetSurvivesRemoval(t *testing.T) {
	c := New(2*mem.LineSize*2, 2) // 2 sets, 2 ways: lines 0, 2, 4 share set 0
	for _, remove := range []func(){
		func() { c.Insert(lineAddr(2), Shared, mem.Line{}); c.Insert(lineAddr(4), Shared, mem.Line{}) },
		func() { c.Invalidate(lineAddr(0)) },
		func() { c.MarkSM(c.Peek(lineAddr(0))); c.GangInvalidateSM() },
	} {
		_, _, e := c.Insert(lineAddr(0), Modified, mem.Line{})
		c.MarkRead(e)
		remove()
		if c.Peek(lineAddr(0)) != nil {
			t.Fatal("line 0 still cached")
		}
		if !c.Reads(lineAddr(0)) || c.Reads(lineAddr(2)) {
			t.Fatal("read set lost line 0 or gained line 2")
		}
		c.Insert(lineAddr(0), Shared, mem.Line{})
		if !c.Reads(lineAddr(0)) {
			t.Fatal("reinserted line 0 left the read set")
		}
		c.MarkRead(c.Peek(lineAddr(0)))
		if got := c.AppendReads(nil); !slices.Equal(got, []mem.Addr{lineAddr(0)}) {
			t.Fatalf("AppendReads = %v, want line 0 once", got)
		}
		c.ResetReads()
		if c.Reads(lineAddr(0)) || len(c.readEvicted) != 0 {
			t.Fatal("ResetReads kept line 0")
		}
	}
}

// TestReadGenWrap: when the generation wraps, stamps from the first
// generation must not become current again.
func TestReadGenWrap(t *testing.T) {
	c := New(4*1024, 4)
	_, _, old := c.Insert(lineAddr(1), Shared, mem.Line{})
	c.MarkRead(old) // stamped with generation 1
	c.readGen = math.MaxUint32
	_, _, cur := c.Insert(lineAddr(2), Shared, mem.Line{})
	c.MarkRead(cur)
	if !c.Reads(lineAddr(2)) || c.Reads(lineAddr(1)) {
		t.Fatal("read set wrong before the wrap")
	}
	c.ResetReads()
	if c.readGen != 1 || c.Reads(lineAddr(1)) || c.Reads(lineAddr(2)) {
		t.Fatalf("after the wrap: gen %d, reads %v %v", c.readGen, c.Reads(lineAddr(1)), c.Reads(lineAddr(2)))
	}
}

// FuzzCacheSets runs random op sequences through a cache and through a
// map model of the read and write sets: the read set is a perfect
// signature (it survives evictions until ResetReads), the write set the
// lines MarkSM marked that are still cached. After every op the
// membership tests, the sorted set lists and the gang-op counts must
// match the model. The same ops also drive the fixed-layout reference:
// every line must sit at the way index a fixed ways-long set gives it.
func FuzzCacheSets(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 4, 0, 8, 1, 8, 0, 12, 6, 0, 1, 0, 3, 4, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		const sets, ways = 4, 2
		c := New(sets*ways*mem.LineSize, ways)
		ref := newFixed(c)
		nLines := 3 * sets * ways
		cached := map[mem.Addr]bool{} // line -> SM
		reads := map[mem.Addr]bool{}
		smLines := func() []mem.Addr {
			var out []mem.Addr
			for l, sm := range cached {
				if sm {
					out = append(out, l)
				}
			}
			slices.Sort(out)
			return out
		}
		for i := 0; i+1 < len(ops); i += 2 {
			line := lineAddr(int(ops[i+1]) % nLines)
			switch ops[i] % 7 {
			case 0:
				st := State(1 + int(ops[i]/7)%3)
				var inSet, smInSet int
				for l, sm := range cached {
					if c.setIndex(l) == c.setIndex(line) {
						inSet++
						if sm {
							smInSet++
						}
					}
				}
				v, evicted, e := c.Insert(line, st, mem.Line{uint64(i)})
				if rv, revicted, _ := ref.insert(line, st, mem.Line{uint64(i)}); v != rv || evicted != revicted {
					t.Fatalf("op %d: Insert(%v) victim %+v (evicted %v), fixed layout %+v (%v)", i/2, line, v, evicted, rv, revicted)
				}
				_, present := cached[line]
				switch {
				case present || inSet < ways:
					if e == nil || evicted {
						t.Fatalf("op %d: Insert(%v) = %v, evicted %v into a set with room", i/2, line, e, evicted)
					}
				case smInSet == ways:
					if e != nil {
						t.Fatalf("op %d: Insert(%v) displaced an SM line", i/2, line)
					}
					continue
				default:
					if sm, ok := cached[v.Tag]; e == nil || !evicted || !ok || sm || v.SM ||
						c.setIndex(v.Tag) != c.setIndex(line) {
						t.Fatalf("op %d: Insert(%v) = %v, victim %+v (evicted %v)", i/2, line, e, v, evicted)
					}
					delete(cached, v.Tag)
				}
				if e.Tag != line || e.State != st {
					t.Fatalf("op %d: Insert(%v) returned %+v", i/2, line, e)
				}
				if !present {
					cached[line] = false
				}
			case 1:
				e := c.Lookup(line)
				ref.lookup(line)
				if _, ok := cached[line]; (e != nil) != ok {
					t.Fatalf("op %d: Lookup(%v) = %v, model has it: %v", i/2, line, e, ok)
				}
				if e != nil {
					c.MarkRead(e)
					reads[line] = true
				}
			case 2:
				e := c.Peek(line)
				if _, ok := cached[line]; (e != nil) != ok {
					t.Fatalf("op %d: Peek(%v) = %v, model has it: %v", i/2, line, e, ok)
				}
				if e != nil {
					c.MarkSM(e)
					ref.peek(line).SM = true
					cached[line] = true
				}
			case 3:
				_, ok := c.Invalidate(line)
				ref.invalidate(line)
				if _, want := cached[line]; ok != want {
					t.Fatalf("op %d: Invalidate(%v) = %v, model has it: %v", i/2, line, ok, want)
				}
				delete(cached, line)
			case 4:
				want := smLines()
				ref.gang(false)
				if n := c.GangInvalidateSM(); n != len(want) {
					t.Fatalf("op %d: GangInvalidateSM = %d, model %d", i/2, n, len(want))
				}
				for _, l := range want {
					delete(cached, l)
				}
			case 5:
				want := smLines()
				var got []mem.Addr
				n := c.CommitSM(func(l mem.Addr, _ mem.Line) { got = append(got, l) })
				if order := ref.gang(true); !slices.Equal(got, order) {
					t.Fatalf("op %d: CommitSM order %v, fixed layout %v", i/2, got, order)
				}
				slices.Sort(got)
				if n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("op %d: CommitSM = %d %v, model %v", i/2, n, got, want)
				}
				for _, l := range want {
					cached[l] = false
				}
			case 6:
				c.ResetReads()
				clear(reads)
			}
			if err := sameWays(c, ref); err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
			for l := 0; l < nLines; l++ {
				a := lineAddr(l)
				if c.Reads(a) != reads[a] || c.Writes(a) != cached[a] {
					t.Fatalf("op %d: line %v: Reads %v Writes %v, model %v %v",
						i/2, a, c.Reads(a), c.Writes(a), reads[a], cached[a])
				}
			}
			var wantReads []mem.Addr
			for l := range reads {
				wantReads = append(wantReads, l)
			}
			slices.Sort(wantReads)
			if got := c.AppendReads(nil); !slices.Equal(got, wantReads) {
				t.Fatalf("op %d: AppendReads = %v, model %v", i/2, got, wantReads)
			}
			if got, want := c.AppendSM(nil), smLines(); !slices.Equal(got, want) {
				t.Fatalf("op %d: AppendSM = %v, model %v", i/2, got, want)
			}
		}
	})
}
