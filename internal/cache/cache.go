// Package cache models a private set-associative L1 data cache with the
// hardware transactional memory extensions the paper's baseline assumes:
// a speculatively-modified (SM) bit per line for lazy versioning, a
// spec-received bit marking lines obtained through a SpecResp, gang
// invalidation of SM lines on abort, and a replacement policy that
// deprioritizes write-set blocks (Section V-A: "the replacement algorithm
// favors write-set blocks").
package cache

import (
	"fmt"
	"math/bits"

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
	SM    bool // speculatively modified: part of the transaction write set
	Spec  bool // received via SpecResp; ownership is a fiction until validated
	Data  mem.Line
	lru   uint64
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
	// sets holds every set, each ways entries long. A set no Insert
	// has reached yet is blank, the one all-Invalid set the cache
	// shares among them; Insert gives a set its own entries before
	// writing, so a cache costs memory only for the sets it uses.
	sets    [][]Entry
	blank   []Entry
	ways    int
	setMask uint64
	tick    uint64
	Stats   Stats

	// touched has one bit per set, marked whenever set hands out that
	// set's entries. An SM bit can only be set through an entry handed
	// out that way, so the gang operations visit just the marked sets
	// and then clear the marks.
	touched []uint64
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
	c := &Cache{blank: make([]Entry, ways), ways: ways, setMask: uint64(nSets - 1),
		touched: make([]uint64, (nSets+63)/64)}
	c.sets = make([][]Entry, nSets)
	for i := range c.sets {
		c.sets[i] = c.blank
	}
	return c
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// isBlank reports whether set is the shared all-Invalid set, which must
// never be written.
func (c *Cache) isBlank(set []Entry) bool { return &set[0] == &c.blank[0] }

func (c *Cache) set(line mem.Addr) []Entry {
	i := (uint64(line) >> mem.LineShift) & c.setMask
	c.touched[i>>6] |= 1 << (i & 63)
	return c.sets[i]
}

// gangScan calls fn on every SM line of the touched sets, in ascending
// set then way order (the order of a full scan), and clears the marks.
func (c *Cache) gangScan(fn func(e *Entry)) {
	for wi, w := range c.touched {
		for ; w != 0; w &= w - 1 {
			set := c.sets[wi<<6+bits.TrailingZeros64(w)]
			for i := range set {
				if e := &set[i]; e.State != Invalid && e.SM {
					fn(e)
				}
			}
		}
		c.touched[wi] = 0
	}
}

// Lookup returns the entry holding line, or nil. It counts a hit or miss
// and refreshes LRU state on hit.
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

// Insert places line into the cache in the given state, returning the
// evicted victim (by value, so an eviction allocates nothing) if a
// valid line had to be displaced, and ok=false if the set is entirely
// occupied by SM (write-set) lines — which forces a capacity abort in a
// running transaction, matching hardware behavior.
// Victim preference: invalid way, then least-recently-used non-SM line,
// then least-recently-used SM line (only taken when the caller permits it
// by not being in a transaction; the caller decides what an SM eviction
// means).
func (c *Cache) Insert(line mem.Addr, st State, data mem.Line) (victim Victim, evicted bool, ok bool) {
	line = line.Line()
	set := c.set(line)
	if c.isBlank(set) {
		set = make([]Entry, c.ways)
		c.sets[(uint64(line)>>mem.LineShift)&c.setMask] = set
	}
	c.tick++
	// Already present: update in place.
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
			e.State = st
			e.Data = data
			e.lru = c.tick
			return Victim{}, false, true
		}
	}
	// Invalid way.
	for i := range set {
		if set[i].State == Invalid {
			set[i] = Entry{Tag: line, State: st, Data: data, lru: c.tick}
			return Victim{}, false, true
		}
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
		return Victim{}, false, false
	}
	v := Victim{Tag: set[best].Tag, State: set[best].State, Dirty: set[best].Dirty,
		SM: set[best].SM, Spec: set[best].Spec, Data: set[best].Data}
	set[best] = Entry{Tag: line, State: st, Data: data, lru: c.tick}
	c.Stats.Evictions++
	return v, true, true
}

// Invalidate removes line from the cache, returning the entry it held.
func (c *Cache) Invalidate(line mem.Addr) (Entry, bool) {
	line = line.Line()
	set := c.set(line)
	for i := range set {
		e := &set[i]
		if e.State != Invalid && e.Tag == line {
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
		*e = Entry{}
		n++
	})
	return n
}

// CommitSM clears the SM and Spec bits on every write-set line at commit:
// the speculative values become the architectural ones, held dirty in M.
// It calls fn for each committed line, in set then way order, so the
// caller can propagate the committed value to the backing image.
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
// invalidate lines, and must not set SM: ForEach does not mark the sets
// it visits, so the gang operations would miss such a line.
func (c *Cache) ForEach(fn func(e *Entry)) {
	for _, set := range c.sets {
		if c.isBlank(set) {
			continue
		}
		for wi := range set {
			if set[wi].State != Invalid {
				fn(&set[wi])
			}
		}
	}
}

// CountSM returns the number of SM lines currently held.
func (c *Cache) CountSM() int {
	n := 0
	c.ForEach(func(e *Entry) {
		if e.SM {
			n++
		}
	})
	return n
}
