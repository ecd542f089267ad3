// Package mem models the simulated physical address space: 64-byte cache
// lines of eight 64-bit words, a sparse backing store holding the
// committed (architectural) value of every line, and a bump allocator for
// building workload data structures in simulated memory.
package mem

import "fmt"

const (
	// LineSize is the cache line size in bytes (Table I: 64-byte lines).
	LineSize = 64
	// WordSize is the machine word size in bytes.
	WordSize = 8
	// WordsPerLine is the number of words in a cache line.
	WordsPerLine = LineSize / WordSize
	// LineShift is log2(LineSize).
	LineShift = 6
)

// Addr is a simulated physical byte address. Workload code always uses
// word-aligned addresses.
type Addr uint64

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// WordIndex returns the index of a's word within its cache line.
func (a Addr) WordIndex() int { return int(a>>3) & (WordsPerLine - 1) }

// Plus returns the address offset by n words.
func (a Addr) Plus(n int) Addr { return a + Addr(n*WordSize) }

func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Line is the value of one cache line: eight 64-bit words.
type Line [WordsPerLine]uint64

// numShards is the fixed internal shard count of a Memory. It is the
// upper bound on the coherence directory's bank count: because every
// power-of-two bank count <= numShards selects banks from the same low
// line-index bits LineShard uses, two lines owned by different directory
// banks always live in different memory shards.
const numShards = 256

// LineShard returns the shard index in [0, shards) of the line
// containing a. shards must be a power of two. This is the one address
// hash shared by the memory's internal sharding and the directory's
// bank selection (coherence.BankOf): consecutive cache lines round-robin
// across shards, so regular strides spread load over all banks.
func LineShard(a Addr, shards int) int {
	return int((uint64(a) >> LineShift) & uint64(shards-1))
}

// Memory is the simulated backing store. It always holds the latest
// committed value of every line (the simulator maintains the invariant
// that any speculatively modified cache copy has its committed version
// here, so silent invalidation of speculative lines is always safe).
//
// The store is internally sharded by LineShard, the interleave the
// directory banks use too.
type Memory struct {
	shards [numShards]map[Addr]*Line
}

// NewMemory returns an empty simulated memory. Untouched lines read as
// zero.
func NewMemory() *Memory {
	m := new(Memory)
	for i := range m.shards {
		m.shards[i] = make(map[Addr]*Line)
	}
	return m
}

// shard returns the map holding a's line.
func (m *Memory) shard(la Addr) map[Addr]*Line {
	return m.shards[LineShard(la, numShards)]
}

// ReadLine returns a copy of the line containing a.
func (m *Memory) ReadLine(a Addr) Line {
	la := a.Line()
	if l, ok := m.shard(la)[la]; ok {
		return *l
	}
	return Line{}
}

// WriteLine replaces the line containing a with l.
func (m *Memory) WriteLine(a Addr, l Line) {
	la := a.Line()
	s := m.shard(la)
	p, ok := s[la]
	if !ok {
		p = new(Line)
		s[la] = p
	}
	*p = l
}

// ReadWord returns the committed word at a (a must be word aligned).
func (m *Memory) ReadWord(a Addr) uint64 {
	la := a.Line()
	if l, ok := m.shard(la)[la]; ok {
		return l[a.WordIndex()]
	}
	return 0
}

// WriteWord sets the committed word at a.
func (m *Memory) WriteWord(a Addr, v uint64) {
	la := a.Line()
	s := m.shard(la)
	p, ok := s[la]
	if !ok {
		p = new(Line)
		s[la] = p
	}
	p[a.WordIndex()] = v
}

// Touched returns the number of distinct lines ever written.
func (m *Memory) Touched() int {
	n := 0
	for i := range m.shards {
		n += len(m.shards[i])
	}
	return n
}

// ForEachLine calls fn with a copy of every line ever written, in
// unspecified order. Callers needing determinism must sort the addresses
// themselves (the invariant checker's shadow memory does).
func (m *Memory) ForEachLine(fn func(a Addr, l Line)) {
	for i := range m.shards {
		for a, l := range m.shards[i] {
			fn(a, *l)
		}
	}
}

// Allocator is a bump allocator over the simulated address space, used
// by workloads to lay out their data structures. It never reuses
// addresses; simulated runs are short enough that this is fine and it
// keeps allocation deterministic.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at base (rounded up to a
// line boundary, and never handing out address 0, which workloads treat
// as nil).
func NewAllocator(base Addr) *Allocator {
	if base == 0 {
		base = LineSize
	}
	return &Allocator{next: (base + LineSize - 1).Line()}
}

// Words allocates n words, word-aligned, and returns the base address.
func (al *Allocator) Words(n int) Addr {
	if n <= 0 {
		panic("mem: Words called with n <= 0")
	}
	a := al.next
	al.next += Addr(n * WordSize)
	return a
}

// Lines allocates n whole cache lines, line-aligned.
func (al *Allocator) Lines(n int) Addr {
	if n <= 0 {
		panic("mem: Lines called with n <= 0")
	}
	al.next = (al.next + LineSize - 1).Line()
	a := al.next
	al.next += Addr(n * LineSize)
	return a
}

// LineAligned allocates n words starting at a fresh line boundary. Use it
// for records that must not share a line with unrelated data (avoids
// false sharing in workloads that want isolation).
func (al *Allocator) LineAligned(nWords int) Addr {
	if nWords <= 0 {
		panic("mem: LineAligned called with nWords <= 0")
	}
	al.next = (al.next + LineSize - 1).Line()
	a := al.next
	al.next += Addr(nWords * WordSize)
	return a
}

// Next returns the next address that would be allocated.
func (al *Allocator) Next() Addr { return al.next }
