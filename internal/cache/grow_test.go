package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chats/internal/mem"
)

// fixedCache is a reference cache whose sets are all ways long from the
// start, with the same victim choice as Cache: the lowest Invalid way,
// then the least-recently-used non-SM line. Cache's grown sets must put
// every line at the way index this layout gives it.
type fixedCache struct {
	sets  [][]Entry
	mask  uint64
	tick  uint64
	stats Stats
}

func newFixed(c *Cache) *fixedCache {
	f := &fixedCache{sets: make([][]Entry, c.Sets()), mask: c.setMask}
	for i := range f.sets {
		f.sets[i] = make([]Entry, c.Ways())
	}
	return f
}

func (f *fixedCache) set(line mem.Addr) []Entry {
	return f.sets[(uint64(line)>>mem.LineShift)&f.mask]
}

func (f *fixedCache) peek(line mem.Addr) *Entry {
	set := f.set(line)
	for i := range set {
		if set[i].State != Invalid && set[i].Tag == line {
			return &set[i]
		}
	}
	return nil
}

func (f *fixedCache) lookup(line mem.Addr) *Entry {
	e := f.peek(line)
	if e == nil {
		f.stats.Misses++
		return nil
	}
	f.tick++
	e.lru = f.tick
	f.stats.Hits++
	return e
}

func (f *fixedCache) insert(line mem.Addr, st State, data mem.Line) (Victim, bool, *Entry) {
	f.tick++
	if e := f.peek(line); e != nil {
		e.State, e.Data, e.lru = st, data, f.tick
		return Victim{}, false, e
	}
	set := f.set(line)
	for i := range set {
		if set[i].State == Invalid {
			set[i] = Entry{Tag: line, State: st, Data: data, lru: f.tick}
			return Victim{}, false, &set[i]
		}
	}
	best := -1
	for i := range set {
		if !set[i].SM && (best == -1 || set[i].lru < set[best].lru) {
			best = i
		}
	}
	if best == -1 {
		f.stats.SMEvictTries++
		return Victim{}, false, nil
	}
	e := &set[best]
	v := Victim{Tag: e.Tag, State: e.State, Dirty: e.Dirty, SM: e.SM, Spec: e.Spec, Data: e.Data}
	*e = Entry{Tag: line, State: st, Data: data, lru: f.tick}
	f.stats.Evictions++
	return v, true, e
}

func (f *fixedCache) invalidate(line mem.Addr) bool {
	if e := f.peek(line); e != nil {
		*e = Entry{}
		return true
	}
	return false
}

// gang drops (or, for commit, commits) every SM line in set then way
// order and returns their lines in that order.
func (f *fixedCache) gang(commit bool) []mem.Addr {
	var out []mem.Addr
	for _, set := range f.sets {
		for i := range set {
			e := &set[i]
			if e.State == Invalid || !e.SM {
				continue
			}
			out = append(out, e.Tag)
			if commit {
				e.SM, e.Spec, e.State, e.Dirty = false, false, Modified, true
			} else {
				*e = Entry{}
			}
		}
	}
	return out
}

// sameWays reports the first place where c differs from the fixed
// layout: a valid line at another (set, way), different entry contents
// (read stamps aside, which the reference does not keep), or different
// stats.
func sameWays(c *Cache, f *fixedCache) error {
	for si, want := range f.sets {
		got := c.sets[si]
		if len(got) > len(want) {
			return fmt.Errorf("set %d grew to %d ways, past %d", si, len(got), len(want))
		}
		for wi := range want {
			var e Entry
			if wi < len(got) {
				e = got[wi]
			}
			e.read = 0
			if want[wi].State == Invalid && e.State == Invalid {
				continue
			}
			if e != want[wi] {
				return fmt.Errorf("set %d way %d = %+v, fixed layout %+v", si, wi, e, want[wi])
			}
		}
	}
	if c.Stats != f.stats {
		return fmt.Errorf("stats %+v, fixed layout %+v", c.Stats, f.stats)
	}
	return nil
}

// TestGrownSetsMatchFixedWays drives a cache and the fixed-layout
// reference through the same random Insert/Lookup/Peek/Invalidate,
// MarkSM and gang operations. After every op each valid line must sit
// at the same (set, way) with the same contents, and victims, gang
// results and hit/miss/eviction counts must agree.
func TestGrownSetsMatchFixedWays(t *testing.T) {
	for _, geo := range []struct{ size, ways int }{
		{4 * 4 * mem.LineSize, 4},   // 4 sets
		{48 * 1024, 12},             // Table I L1D: 64 sets
		{256 * 2 * mem.LineSize, 2}, // 256 sets: a multi-word bitmap
	} {
		c := New(geo.size, geo.ways)
		ref := newFixed(c)
		rng := rand.New(rand.NewSource(int64(c.Sets())))
		lines := 3 * c.Sets() * c.Ways()
		for step := 0; step < 20000; step++ {
			line := lineAddr(rng.Intn(lines))
			switch op := rng.Intn(16); {
			case op < 6:
				st := State(1 + rng.Intn(3))
				d := mem.Line{uint64(step)}
				v, evicted, e := c.Insert(line, st, d)
				rv, revicted, re := ref.insert(line, st, d)
				if v != rv || evicted != revicted || (e == nil) != (re == nil) {
					t.Fatalf("%d sets, step %d: Insert(%v) = %+v %v %v, fixed layout %+v %v %v",
						c.Sets(), step, line, v, evicted, e != nil, rv, revicted, re != nil)
				}
			case op < 11:
				var e, re *Entry
				if op%2 == 0 {
					e, re = c.Lookup(line), ref.lookup(line)
				} else {
					e, re = c.Peek(line), ref.peek(line)
				}
				if (e == nil) != (re == nil) {
					t.Fatalf("%d sets, step %d: presence of %v differs", c.Sets(), step, line)
				}
				if e != nil && rng.Intn(2) == 0 {
					spec := rng.Intn(2) == 0
					c.MarkSM(e)
					e.Spec = spec
					re.SM, re.Spec = true, spec
				}
			case op < 13:
				_, ok := c.Invalidate(line)
				if want := ref.invalidate(line); ok != want {
					t.Fatalf("%d sets, step %d: Invalidate(%v) = %v, fixed layout %v", c.Sets(), step, line, ok, want)
				}
			case op < 15:
				if n, want := c.GangInvalidateSM(), ref.gang(false); n != len(want) {
					t.Fatalf("%d sets, step %d: GangInvalidateSM = %d, fixed layout %d", c.Sets(), step, n, len(want))
				}
			default:
				var got []mem.Addr
				c.CommitSM(func(l mem.Addr, _ mem.Line) { got = append(got, l) })
				if want := ref.gang(true); !slices.Equal(got, want) {
					t.Fatalf("%d sets, step %d: CommitSM order %v, fixed layout %v", c.Sets(), step, got, want)
				}
			}
			if err := sameWays(c, ref); err != nil {
				t.Fatalf("%d sets, step %d: %v", c.Sets(), step, err)
			}
		}
	}
}

// TestEntrySurvivesSetGrowth: when a set moves to a larger array, the
// lines already in it keep every field, read and write set membership
// included.
func TestEntrySurvivesSetGrowth(t *testing.T) {
	c := New(48*1024, 12)
	sameSet := func(i int) mem.Addr { return lineAddr(i * c.Sets()) }
	_, _, e := c.Insert(sameSet(0), Modified, mem.Line{7, 8})
	c.MarkSM(e)
	c.MarkRead(e)
	e.Spec, e.Dirty = true, true
	want := *e
	moves := 0
	for i := 1; i < c.Ways(); i++ {
		before := &c.sets[0][0]
		if _, evicted, e := c.Insert(sameSet(i), Shared, mem.Line{uint64(i)}); e == nil || evicted {
			t.Fatalf("insert %d: entry %v, evicted %v", i, e, evicted)
		}
		if &c.sets[0][0] != before {
			moves++
		}
		if got := c.Peek(sameSet(0)); got == nil || *got != want {
			t.Fatalf("after %d inserts: line 0 = %+v, want %+v", i, got, want)
		}
		if !c.Reads(sameSet(0)) || !c.Writes(sameSet(0)) || len(c.AppendSM(nil)) != 1 {
			t.Fatalf("after %d inserts: line 0 left the read or write set", i)
		}
	}
	if moves == 0 {
		t.Fatal("the set never moved: the test exercised no growth")
	}
	if len(c.sets[0]) != c.Ways() {
		t.Fatalf("set 0 has %d ways, want %d", len(c.sets[0]), c.Ways())
	}
}
