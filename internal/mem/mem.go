// Package mem models the simulated physical address space: 64-byte cache
// lines of eight 64-bit words, a sparse backing store holding the
// committed (architectural) value of every line in 4 KiB pages allocated
// on first write, and a bump allocator for building workload data
// structures in simulated memory.
package mem

import (
	"fmt"
	"math/bits"
)

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

// Walker is the step function of a load chain: a walk loads a word,
// passes its value to Next and loads the address Next returns, until
// Next reports more == false. The walker's own fields carry the walk's
// result back to its caller.
//
// Next must be pure with respect to the simulation: it makes no Ctx or
// Tx calls, draws no random numbers and touches no Go state shared
// beyond the walker, because the machine calls it at engine time,
// inside the event that completed the load.
type Walker interface {
	Next(v uint64) (next Addr, more bool)
}

// Line is the value of one cache line: eight 64-bit words.
type Line [WordsPerLine]uint64

// LineShard returns the shard index in [0, shards) of the line
// containing a. shards must be a power of two. It is the directory's
// bank selection (coherence.BankOf): consecutive cache lines
// round-robin across shards, so regular strides spread load over all
// banks.
func LineShard(a Addr, shards int) int {
	return int((uint64(a) >> LineShift) & uint64(shards-1))
}

const (
	// pageShift is log2 of the page size: a page is 64 lines, 4 KiB.
	pageShift = 12
	// linesPerPage is the number of lines in a page; one uint64 holds
	// a page's written-line bits.
	linesPerPage = 1 << (pageShift - LineShift)
	// densePages bounds the page table: pages below it (the first GiB
	// of address space, where workloads allocate) are indexed directly,
	// pages above it go to a map, so a stray far address costs one page,
	// not a table reaching up to it.
	densePages = 1 << (30 - pageShift)
)

// page holds the values of 64 consecutive lines. It is exactly 4 KiB,
// a size class of its own, so it wastes no memory.
type page [linesPerPage]Line

// Memory is the simulated backing store. It always holds the latest
// committed value of every line (the simulator maintains the invariant
// that any speculatively modified cache copy has its committed version
// here, so silent invalidation of speculative lines is always safe).
//
// The store is a page table, filled on first write: dense indexes the
// pages below densePages by page number, far holds the pages above it.
// A page's written bits live beside it, in written or farPage, so a
// line written with zeros still counts as written.
type Memory struct {
	dense   []*page
	written []uint64 // written[pn] bit i: line i of dense[pn] was written
	far     map[uint64]*farPage
	touched int // distinct lines ever written
}

// farPage is a page above densePages with its written-line bits.
type farPage struct {
	page    page
	written uint64
}

// NewMemory returns an empty simulated memory. Untouched lines read as
// zero.
func NewMemory() *Memory { return new(Memory) }

// line returns the line containing a, or nil if its page was never
// written.
func (m *Memory) line(a Addr) *Line {
	pn := uint64(a) >> pageShift
	li := (uint64(a) >> LineShift) & (linesPerPage - 1)
	if pn < uint64(len(m.dense)) {
		if p := m.dense[pn]; p != nil {
			return &p[li]
		}
		return nil
	}
	if pn < densePages {
		return nil
	}
	if fp := m.far[pn]; fp != nil {
		return &fp.page[li]
	}
	return nil
}

// writable returns the line containing a for writing, allocating its
// page on first touch and counting the line as written.
func (m *Memory) writable(a Addr) *Line {
	pn := uint64(a) >> pageShift
	li := (uint64(a) >> LineShift) & (linesPerPage - 1)
	var p *page
	var written *uint64
	if pn < densePages {
		if grow := int(pn) + 1 - len(m.dense); grow > 0 {
			m.dense = append(m.dense, make([]*page, grow)...)
			m.written = append(m.written, make([]uint64, grow)...)
		}
		if m.dense[pn] == nil {
			m.dense[pn] = new(page)
		}
		p, written = m.dense[pn], &m.written[pn]
	} else {
		fp := m.far[pn]
		if fp == nil {
			if m.far == nil {
				m.far = make(map[uint64]*farPage)
			}
			fp = new(farPage)
			m.far[pn] = fp
		}
		p, written = &fp.page, &fp.written
	}
	if *written&(1<<li) == 0 {
		*written |= 1 << li
		m.touched++
	}
	return &p[li]
}

// ReadLine returns a copy of the line containing a.
func (m *Memory) ReadLine(a Addr) Line {
	if l := m.line(a); l != nil {
		return *l
	}
	return Line{}
}

// WriteLine replaces the line containing a with l.
func (m *Memory) WriteLine(a Addr, l Line) { *m.writable(a) = l }

// ReadWord returns the committed word at a (a must be word aligned).
func (m *Memory) ReadWord(a Addr) uint64 {
	if l := m.line(a); l != nil {
		return l[a.WordIndex()]
	}
	return 0
}

// WriteWord sets the committed word at a.
func (m *Memory) WriteWord(a Addr, v uint64) { m.writable(a)[a.WordIndex()] = v }

// Touched returns the number of distinct lines ever written.
func (m *Memory) Touched() int { return m.touched }

// ForEachLine calls fn with a copy of every line ever written, in
// unspecified order. Callers needing determinism must sort the addresses
// themselves (the invariant checker's shadow memory does).
func (m *Memory) ForEachLine(fn func(a Addr, l Line)) {
	each := func(pn uint64, p *page, written uint64) {
		for ; written != 0; written &= written - 1 {
			li := bits.TrailingZeros64(written)
			fn(Addr(pn<<pageShift|uint64(li)<<LineShift), p[li])
		}
	}
	for pn, p := range m.dense {
		if p != nil {
			each(uint64(pn), p, m.written[pn])
		}
	}
	for pn, fp := range m.far {
		each(pn, &fp.page, fp.written)
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
