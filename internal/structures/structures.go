// Package structures provides transactional data structures laid out in
// simulated memory: a sorted linked list, a hash set, a treap (randomized
// BST whose rotations create the parent-path write conflicts of a
// rebalancing tree) and a FIFO queue. Every access goes through the Mem
// interface, so the same code runs inside hardware transactions (via
// machine.Tx), non-transactionally (via machine.Ctx), or directly against
// the backing memory during workload setup.
//
// Under machine.Ctx and machine.Tx every Load suspends the simulated
// thread until its reply, while stores are posted. So the operations
// run their pure load chains as one Mem.Walk each, and the thread
// suspends once per chain: a List, HashSet or Treap lookup, a List
// insert or remove, a Treap insert's descent and each of its climbs,
// and a Queue push or pop. Treap.Remove still loads word by word,
// suspending once per load; Treap.Scan and Queue.Len do too, but only
// workload checks call them, through Direct.
package structures

import "chats/internal/mem"

// Mem is a word-addressed memory accessor. machine.Tx and machine.Ctx
// satisfy it; Direct adapts the raw backing store for setup code.
// Walk runs a pure load chain (see mem.Walker): the machine runs it at
// engine time, so a simulated thread resumes once per walk instead of
// once per load.
type Mem interface {
	Load(a mem.Addr) uint64
	Store(a mem.Addr, v uint64)
	Walk(first mem.Addr, w mem.Walker)
}

// Direct accesses the backing memory outside simulated time (setup and
// checking only).
type Direct struct {
	M *mem.Memory
}

// Load reads a committed word.
func (d Direct) Load(a mem.Addr) uint64 { return d.M.ReadWord(a) }

// Store writes a committed word.
func (d Direct) Store(a mem.Addr, v uint64) { d.M.WriteWord(a, v) }

// Walk runs the chain as a plain load loop.
func (d Direct) Walk(first mem.Addr, w mem.Walker) {
	for a, more := first, true; more; {
		a, more = w.Next(d.M.ReadWord(a))
	}
}

// Pool is a per-thread free list of pre-allocated records, so structure
// code can "allocate" nodes inside transactions without a shared
// allocator (which would itself be a contention hotspot). Get may be
// re-executed by an aborted transaction; the skipped node leaks, which is
// how real transactional allocators behave between checkpoints.
type Pool struct {
	nodes []mem.Addr
	next  int
}

// NewPool carves n records of nWords each (line-aligned to avoid false
// sharing) out of the allocator.
func NewPool(al *mem.Allocator, n, nWords int) *Pool {
	p := &Pool{nodes: make([]mem.Addr, n)}
	for i := range p.nodes {
		p.nodes[i] = al.LineAligned(nWords)
	}
	return p
}

// Get returns the next free record. It panics if the pool is exhausted —
// size pools for the worst case; workloads are finite.
func (p *Pool) Get() mem.Addr {
	if p.next >= len(p.nodes) {
		panic("structures: node pool exhausted")
	}
	a := p.nodes[p.next]
	p.next++
	return a
}

// Remaining returns how many records are left.
func (p *Pool) Remaining() int { return len(p.nodes) - p.next }
