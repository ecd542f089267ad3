// Package cache models a private set-associative L1 data cache with the
// hardware transactional memory extensions the paper's baseline assumes:
// a speculatively-modified (SM) bit per line for lazy versioning, a
// spec-received bit marking lines obtained through a SpecResp, gang
// invalidation of SM lines on abort, and a replacement policy that
// deprioritizes write-set blocks (Section V-A: "the replacement algorithm
// favors write-set blocks").
//
// The cache also holds its core's transactional read and write sets. The
// write set is the SM lines. The read set is a read stamp per entry plus
// an overflow set of the lines that left the cache while read, so it
// survives evictions like the perfect signature of Section VI-B.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"chats/internal/mem"
)

// State is a MESI coherence state as seen by the local cache.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Entry is one cache line's worth of state.
type Entry struct {
	Tag   mem.Addr // line address; meaningful only when State != Invalid
	State State
	Dirty bool // holds data newer than the LLC image (non-speculative)
	// SM marks a speculatively modified line: part of the transaction
	// write set. Only MarkSM sets it.
	SM   bool
	Spec bool // received via SpecResp; ownership is a fiction until validated
	// read is the read stamp: the line is in the read set while it
	// equals the cache's readGen. It fills the padding after the flags.
	read uint32
	Data mem.Line
	lru  uint64
}

// Stats counts cache events.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	SMEvictTries uint64 // times the victim search had only SM candidates
}

// Cache is a private set-associative cache.
type Cache struct {
	// sets holds every set. A set starts empty and Insert grows it one
	// way at a time, up to ways entries, so a cache costs memory only
	// for the ways it uses. Ways past a set's length are Invalid, and a
	// line lands at the way index a fixed ways-long set would give it.
	sets    [][]Entry
	ways    int
	setMask uint64
	tick    uint64
	Stats   Stats

	// smSets has one bit per set, marked by MarkSM. Every SM line sits
	// in a marked set, so the gang operations visit just those sets and
	// then clear the marks.
	smSets []uint64

	// readGen is the current read generation: an entry whose read stamp
	// equals it belongs to the read set. readEvicted holds the lines of
	// such entries that were evicted or invalidated, so the read set
	// survives them; it is allocated on the first such removal.
	readGen     uint32
	readEvicted map[mem.Addr]struct{}
}

// New builds a cache of sizeBytes capacity and the given associativity.
// The number of sets must come out a power of two.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: size and ways must be positive")
	}
	nSets := sizeBytes / (ways * mem.LineSize)
	if nSets == 0 || nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two (size %d, ways %d)", nSets, sizeBytes, ways))
	}
	return &Cache{sets: make([][]Entry, nSets), ways: ways, setMask: uint64(nSets - 1),
		smSets: make([]uint64, (nSets+63)/64), readGen: 1}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

func (c *Cache) setIndex(line mem.Addr) uint64 {
	return (uint64(line) >> mem.LineShift) & c.setMask
}

func (c *Cache) set(line mem.Addr) []Entry { return c.sets[c.setIndex(line)] }

// scanSM calls fn on every SM line, in ascending set then way order
// (the order of a full scan), visiting only the sets MarkSM marked.
func (c *Cache) scanSM(fn func(e *Entry)) {
	for wi, w := range c.smSets {
		for ; w != 0; w &= w - 1 {
			set := c.sets[wi<<6+bits.TrailingZeros64(w)]
			for i := range set {
				if e := &set[i]; e.State != Invalid && e.SM {
					fn(e)
				}
			}
		}
	}
}

// gangScan is scanSM for the gang operations, which leave no SM line
// behind: it clears the marks afterwards.
func (c *Cache) gangScan(fn func(e *Entry)) {
	c.scanSM(fn)
	clear(c.smSets)
}

// MarkSM sets e's SM bit, adding its line to the write set.
func (c *Cache) MarkSM(e *Entry) {
	e.SM = true
	i := c.setIndex(e.Tag)
	c.smSets[i>>6] |= 1 << (i & 63)
}

// Writes reports whether line is in the write set: present and SM.
func (c *Cache) Writes(line mem.Addr) bool {
	e := c.Peek(line)
	return e != nil && e.SM
}

// AppendSM appends the write set's lines to dst in ascending address
// order and returns the extended slice.
func (c *Cache) AppendSM(dst []mem.Addr) []mem.Addr {
	start := len(dst)
	c.scanSM(func(e *Entry) { dst = append(dst, e.Tag) })
	slices.Sort(dst[start:])
	return dst
}

// MarkRead adds e's line to the read set.
func (c *Cache) MarkRead(e *Entry) { e.read = c.readGen }

// Reads reports whether line is in the read set: present with a
// current stamp, or evicted or invalidated while read.
func (c *Cache) Reads(line mem.Addr) bool {
	line = line.Line()
	if e := c.Peek(line); e != nil && e.read == c.readGen {
		return true
	}
	if len(c.readEvicted) == 0 {
		return false
	}
	_, ok := c.readEvicted[line]
	return ok
}

// ResetReads empties the read set. A new generation makes every stamp
// stale at once; only when the generation wraps are the stamps zeroed.
func (c *Cache) ResetReads() {
	c.readGen++
	if c.readGen == 0 {
		for _, set := range c.sets {
			for i := range set {
				set[i].read = 0
			}
		}
		c.readGen = 1
	}
	if len(c.readEvicted) > 0 {
		clear(c.readEvicted)
	}
}

// AppendReads appends the read set's lines to dst in ascending address
// order and returns the extended slice. It scans the whole cache: it
// serves diagnostics, not the access path.
func (c *Cache) AppendReads(dst []mem.Addr) []mem.Addr {
	start := len(dst)
	c.ForEach(func(e *Entry) {
		if e.read == c.readGen {
			dst = append(dst, e.Tag)
		}
	})
	for a := range c.readEvicted {
		dst = append(dst, a)
	}
	slices.Sort(dst[start:])
	return append(dst[:start], slices.Compact(dst[start:])...)
}

// keepRead notes that e is about to leave the cache: a line in the read
// set stays there through the overflow set.
func (c *Cache) keepRead(e *Entry) {
	if e.read == c.readGen {
		if c.readEvicted == nil {
			c.readEvicted = make(map[mem.Addr]struct{})
		}
		c.readEvicted[e.Tag] = struct{}{}
	}
}

// Lookup returns the entry holding line, or nil. It counts a hit or miss
// and refreshes LRU state on hit. The entry stays valid only until the
// next Insert into this cache, which may move its set.
func (c *Cache) Lookup(line mem.Addr) *Entry {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			c.tick++
			e.lru = c.tick
			c.Stats.Hits++
			return e
		}
	}
	c.Stats.Misses++
	return nil
}

// Peek returns the entry holding line without touching LRU or stats.
// Like Lookup's, the entry stays valid only until the next Insert.
func (c *Cache) Peek(line mem.Addr) *Entry {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			return e
		}
	}
	return nil
}

// Victim describes a line pushed out by Insert.
type Victim struct {
	Tag   mem.Addr
	State State
	Dirty bool
	SM    bool
	Spec  bool
	Data  mem.Line
}

// Insert places line into the cache in the given state and returns the
// evicted victim (by value, so an eviction allocates nothing) if a valid
// line had to be displaced, and the line's entry. The entry is nil if
// the set is entirely occupied by SM (write-set) lines — which forces a
// capacity abort in a running transaction, matching hardware behavior.
// Victim preference: the lowest Invalid way (a way the set has not
// grown to yet counts as one), then least-recently-used non-SM line.
// A line already present is updated in place and keeps its SM bit and
// read stamp. Growing a set may move it, so Insert invalidates every
// entry pointer Lookup, Peek or Insert handed out before.
func (c *Cache) Insert(line mem.Addr, st State, data mem.Line) (victim Victim, evicted bool, e *Entry) {
	line = line.Line()
	si := c.setIndex(line)
	set := c.sets[si]
	c.tick++
	free := -1
	for i := range set {
		e := &set[i]
		if e.State == Invalid {
			if free < 0 {
				free = i
			}
			continue
		}
		if e.Tag == line {
			// Already present: update in place.
			e.State = st
			e.Data = data
			e.lru = c.tick
			return Victim{}, false, e
		}
	}
	if free < 0 && len(set) < c.ways {
		set = c.grow(si)
		free = len(set) - 1
	}
	if free >= 0 {
		set[free] = Entry{Tag: line, State: st, Data: data, lru: c.tick}
		return Victim{}, false, &set[free]
	}
	// LRU among non-SM lines.
	best := -1
	for i := range set {
		if set[i].SM {
			continue
		}
		if best == -1 || set[i].lru < set[best].lru {
			best = i
		}
	}
	if best == -1 {
		// Every way holds a write-set line: transactional overflow.
		c.Stats.SMEvictTries++
		return Victim{}, false, nil
	}
	e = &set[best]
	c.keepRead(e)
	v := Victim{Tag: e.Tag, State: e.State, Dirty: e.Dirty, SM: e.SM, Spec: e.Spec, Data: e.Data}
	*e = Entry{Tag: line, State: st, Data: data, lru: c.tick}
	c.Stats.Evictions++
	return v, true, e
}

// grow adds one Invalid way to set si and returns the set. A set's
// first array holds two ways and its second all of them: most sets of
// a 256-core run hold one or two lines, and a full set then leaves
// just two entries of garbage behind.
func (c *Cache) grow(si uint64) []Entry {
	set := c.sets[si]
	if len(set) == cap(set) {
		n := c.ways
		if len(set) == 0 {
			n = min(2, c.ways)
		}
		set = append(make([]Entry, 0, n), set...)
	}
	set = set[:len(set)+1]
	c.sets[si] = set
	return set
}

// Invalidate removes line from the cache, returning the entry it held.
func (c *Cache) Invalidate(line mem.Addr) (Entry, bool) {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			c.keepRead(e)
			old := *e
			*e = Entry{}
			return old, true
		}
	}
	return Entry{}, false
}

// GangInvalidateSM drops every SM line in one shot (the conditional gang
// invalidation an aborting best-effort transaction performs) and returns
// how many lines were dropped.
func (c *Cache) GangInvalidateSM() int {
	n := 0
	c.gangScan(func(e *Entry) {
		c.keepRead(e)
		*e = Entry{}
		n++
	})
	return n
}

// CommitSM clears the SM and Spec bits on every write-set line at commit:
// the speculative values become the architectural ones, held dirty in M.
// A non-nil fn sees each committed line, in set then way order; the
// machine passes nil (the lines reach memory as dirty M lines), and the
// unit tests observe the scan order through it.
func (c *Cache) CommitSM(fn func(line mem.Addr, data mem.Line)) int {
	n := 0
	c.gangScan(func(e *Entry) {
		e.SM = false
		e.Spec = false
		e.State = Modified
		e.Dirty = true
		n++
		if fn != nil {
			fn(e.Tag, e.Data)
		}
	})
	return n
}

// ForEach visits every valid entry. The callback must not insert or
// invalidate lines, and must set SM only through MarkSM.
func (c *Cache) ForEach(fn func(e *Entry)) {
	for _, set := range c.sets {
		for wi := range set {
			if set[wi].State != Invalid {
				fn(&set[wi])
			}
		}
	}
}
