package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chats/internal/mem"
)

func lineAddr(i int) mem.Addr { return mem.Addr(i * mem.LineSize) }

func TestNewGeometry(t *testing.T) {
	c := New(48*1024, 12) // paper L1D: 48KiB 12-way -> 64 sets
	if c.Sets() != 64 || c.Ways() != 12 {
		t.Fatalf("geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(48*1024, 10) // 76.8 sets: invalid
}

func TestInsertLookup(t *testing.T) {
	c := New(4*1024, 4)
	d := mem.Line{1, 2, 3}
	if _, _, e := c.Insert(lineAddr(1), Shared, d); e == nil {
		t.Fatal("insert failed")
	}
	e := c.Lookup(lineAddr(1))
	if e == nil || e.State != Shared || e.Data != d {
		t.Fatalf("lookup = %+v", e)
	}
	if c.Lookup(lineAddr(2)) != nil {
		t.Fatal("phantom hit")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(1), Shared, mem.Line{1})
	c.Insert(lineAddr(1), Modified, mem.Line{2})
	e := c.Peek(lineAddr(1))
	if e.State != Modified || e.Data[0] != 2 {
		t.Fatalf("update in place failed: %+v", e)
	}
	n := 0
	c.ForEach(func(*Entry) { n++ })
	if n != 1 {
		t.Fatalf("duplicate entries: %d", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*mem.LineSize*2, 2) // 2 sets, 2 ways
	// Lines 0, 2, 4 all map to set 0.
	c.Insert(lineAddr(0), Shared, mem.Line{})
	c.Insert(lineAddr(2), Shared, mem.Line{})
	c.Lookup(lineAddr(0)) // make line 0 most recent
	v, evicted, e := c.Insert(lineAddr(4), Shared, mem.Line{})
	if e == nil || !evicted || v.Tag != lineAddr(2) {
		t.Fatalf("victim = %+v, want line 2", v)
	}
	if c.Peek(lineAddr(0)) == nil || c.Peek(lineAddr(4)) != e {
		t.Fatal("survivors wrong")
	}
}

func TestSMLinesResistEviction(t *testing.T) {
	c := New(2*mem.LineSize*2, 2)
	c.Insert(lineAddr(0), Modified, mem.Line{})
	c.MarkSM(c.Peek(lineAddr(0)))
	c.Insert(lineAddr(2), Shared, mem.Line{})
	// Line 0 is older but SM: line 2 must be the victim.
	v, evicted, e := c.Insert(lineAddr(4), Shared, mem.Line{})
	if e == nil || !evicted || v.Tag != lineAddr(2) {
		t.Fatalf("victim = %+v, want line 2", v)
	}
}

func TestAllSMOverflow(t *testing.T) {
	c := New(2*mem.LineSize*2, 2)
	c.Insert(lineAddr(0), Modified, mem.Line{})
	c.MarkSM(c.Peek(lineAddr(0)))
	c.Insert(lineAddr(2), Modified, mem.Line{})
	c.MarkSM(c.Peek(lineAddr(2)))
	if _, _, e := c.Insert(lineAddr(4), Shared, mem.Line{}); e != nil {
		t.Fatal("expected overflow when set full of SM lines")
	}
	if c.Stats.SMEvictTries != 1 {
		t.Fatalf("SMEvictTries = %d", c.Stats.SMEvictTries)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(3), Modified, mem.Line{7})
	old, ok := c.Invalidate(lineAddr(3))
	if !ok || old.Data[0] != 7 {
		t.Fatalf("invalidate = %+v, %v", old, ok)
	}
	if _, ok := c.Invalidate(lineAddr(3)); ok {
		t.Fatal("double invalidate succeeded")
	}
	if c.Peek(lineAddr(3)) != nil {
		t.Fatal("line still present")
	}
}

func TestGangInvalidateSM(t *testing.T) {
	c := New(4*1024, 4)
	for i := 0; i < 6; i++ {
		c.Insert(lineAddr(i), Modified, mem.Line{})
		if i%2 == 0 {
			c.MarkSM(c.Peek(lineAddr(i)))
		}
	}
	if n := c.GangInvalidateSM(); n != 3 {
		t.Fatalf("gang invalidated %d, want 3", n)
	}
	for i := 0; i < 6; i++ {
		present := c.Peek(lineAddr(i)) != nil
		if present != (i%2 == 1) {
			t.Fatalf("line %d presence = %v", i, present)
		}
	}
	if len(c.AppendSM(nil)) != 0 {
		t.Fatal("SM lines remain")
	}
}

func TestCommitSM(t *testing.T) {
	c := New(4*1024, 4)
	c.Insert(lineAddr(0), Exclusive, mem.Line{42})
	e := c.Peek(lineAddr(0))
	c.MarkSM(e)
	e.Spec = true
	committed := map[mem.Addr]mem.Line{}
	n := c.CommitSM(func(l mem.Addr, d mem.Line) { committed[l] = d })
	if n != 1 {
		t.Fatalf("committed %d lines", n)
	}
	if d, ok := committed[lineAddr(0)]; !ok || d[0] != 42 {
		t.Fatal("commit callback missing or wrong data")
	}
	e = c.Peek(lineAddr(0))
	if e.SM || e.Spec || e.State != Modified || !e.Dirty {
		t.Fatalf("post-commit entry = %+v", e)
	}
}

// refGangScan is the full-scan reference for the gang operations: it
// visits every SM line of every set, in set then way order.
func refGangScan(c *Cache, fn func(e *Entry)) {
	for si := range c.sets {
		for wi := range c.sets[si] {
			if e := &c.sets[si][wi]; e.State != Invalid && e.SM {
				fn(e)
			}
		}
	}
}

// TestGangOpsMatchFullScan drives a cache and a shadow copy through the
// same random Insert/Lookup/Peek/Invalidate calls, setting SM (through
// MarkSM in the cache, directly in the shadow) and Spec bits on the
// entries they hand out. After every gang operation the cache, which
// scans only the sets MarkSM marked, must match the shadow, which scans
// them all: the same count, the same entries and, for CommitSM, the
// same callback order.
func TestGangOpsMatchFullScan(t *testing.T) {
	for _, geo := range []struct{ size, ways int }{
		{4 * 4 * mem.LineSize, 4},   // 4 sets
		{48 * 1024, 12},             // Table I L1D: 64 sets
		{256 * 2 * mem.LineSize, 2}, // 256 sets: a multi-word bitmap
	} {
		c, ref := New(geo.size, geo.ways), New(geo.size, geo.ways)
		rng := rand.New(rand.NewSource(int64(c.Sets())))
		lines := 3 * c.Sets() * c.Ways()
		for step := 0; step < 20000; step++ {
			line := lineAddr(rng.Intn(lines))
			gang := false
			switch op := rng.Intn(16); {
			case op < 5:
				st := State(1 + rng.Intn(3))
				d := mem.Line{uint64(step)}
				c.Insert(line, st, d)
				ref.Insert(line, st, d)
			case op < 10:
				// Speculatively write the line if present, through the
				// entry Lookup or Peek hands out.
				get := (*Cache).Lookup
				if op%2 == 0 {
					get = (*Cache).Peek
				}
				e, re := get(c, line), get(ref, line)
				if (e == nil) != (re == nil) {
					t.Fatalf("%d sets, step %d: presence of %v differs", c.Sets(), step, line)
				}
				if e != nil && rng.Intn(2) == 0 {
					spec := rng.Intn(2) == 0
					c.MarkSM(e)
					e.Spec = spec
					re.SM, re.Spec = true, spec
				}
			case op < 12:
				c.Invalidate(line)
				ref.Invalidate(line)
			case op < 14:
				gang = true
				n := c.GangInvalidateSM()
				want := 0
				refGangScan(ref, func(e *Entry) { *e = Entry{}; want++ })
				if n != want {
					t.Fatalf("%d sets, step %d: GangInvalidateSM = %d, full scan %d", c.Sets(), step, n, want)
				}
			default:
				gang = true
				var got, want []mem.Addr
				n := c.CommitSM(func(l mem.Addr, _ mem.Line) { got = append(got, l) })
				refGangScan(ref, func(e *Entry) {
					e.SM, e.Spec, e.State, e.Dirty = false, false, Modified, true
					want = append(want, e.Tag)
				})
				if n != len(want) || len(got) != len(want) {
					t.Fatalf("%d sets, step %d: CommitSM = %d (%d callbacks), full scan %d",
						c.Sets(), step, n, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%d sets, step %d: callback %d is %v, full scan %v", c.Sets(), step, i, got[i], want[i])
					}
				}
			}
			if !gang {
				continue
			}
			for si := range c.sets {
				for wi := range c.sets[si] {
					if c.sets[si][wi] != ref.sets[si][wi] {
						t.Fatalf("%d sets, step %d: set %d way %d = %+v, full scan %+v",
							c.Sets(), step, si, wi, c.sets[si][wi], ref.sets[si][wi])
					}
				}
			}
		}
	}
}

func TestVictimCarriesFullState(t *testing.T) {
	c := New(mem.LineSize*1, 1) // 1 set, 1 way
	c.Insert(lineAddr(0), Modified, mem.Line{9})
	c.Peek(lineAddr(0)).Dirty = true
	v, evicted, e := c.Insert(lineAddr(1), Shared, mem.Line{})
	if e == nil || !evicted {
		t.Fatal("no eviction")
	}
	if v.Tag != lineAddr(0) || !v.Dirty || v.State != Modified || v.Data[0] != 9 {
		t.Fatalf("victim = %+v", v)
	}
}

// Property: the cache never holds two entries for the same tag, and never
// holds more valid entries than its capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(8*mem.LineSize*2, 2) // 8 sets, 2 ways
		for _, op := range ops {
			line := lineAddr(int(op % 64))
			switch op % 3 {
			case 0:
				c.Insert(line, Shared, mem.Line{uint64(op)})
			case 1:
				c.Lookup(line)
			case 2:
				c.Invalidate(line)
			}
			seen := map[mem.Addr]int{}
			count := 0
			c.ForEach(func(e *Entry) {
				seen[e.Tag]++
				count++
			})
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
			if count > c.Sets()*c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still print")
	}
}

// TestUntouchedSetMissAllocatesNothing: sets grow on insert, so a miss in a set no Insert has reached allocates
// nothing and counts exactly as a miss in an allocated set: Lookup adds
// one miss, Peek and Invalidate leave the stats alone.
func TestUntouchedSetMissAllocatesNothing(t *testing.T) {
	c := New(48*1024, 12)
	c.Insert(lineAddr(0), Shared, mem.Line{1}) // set 0 allocated
	for _, line := range []mem.Addr{lineAddr(1), lineAddr(c.Sets())} {
		before := c.Stats
		if n := testing.AllocsPerRun(100, func() {
			if c.Lookup(line) != nil || c.Peek(line) != nil {
				t.Fatalf("phantom hit on %v", line)
			}
			c.Invalidate(line)
		}); n != 0 {
			t.Errorf("missing %v allocated %v times", line, n)
		}
		want := before
		want.Misses += 101 // AllocsPerRun makes one warm-up call
		if c.Stats != want {
			t.Errorf("after missing %v: stats = %+v, want %+v", line, c.Stats, want)
		}
	}
	if c.sets[1] != nil {
		t.Error("misses allocated set 1")
	}
	if got := len(c.AppendSM(nil)); got != 0 {
		t.Errorf("SM lines = %d", got)
	}
	if _, _, e := c.Insert(lineAddr(1), Modified, mem.Line{2}); e == nil || len(c.sets[1]) != 1 {
		t.Fatal("insert did not grow set 1 to one way")
	}
	if e := c.Lookup(lineAddr(1)); e == nil || e.Data[0] != 2 {
		t.Fatalf("lookup after first insert = %+v", e)
	}
	if e := c.Peek(lineAddr(1 + c.Sets())); e != nil {
		t.Fatalf("another line of set 1 hit: %+v", e)
	}
}
