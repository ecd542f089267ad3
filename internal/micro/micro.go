// Package micro implements the two synthetic microbenchmarks of
// Section VI-C: llb (linked-list traverse-then-modify, low and high
// contention flavours) and cadd (clustered add: a hot shared variable
// held modified across a long cluster summation — the chained-add
// pattern that shows off transaction chaining).
package micro

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
	"chats/internal/structures"
)

// LLB traverses a shared sorted linked list and increments the value of
// a searched element. In the low-contention flavour each thread modifies
// mostly its own key range (but still traverses the shared prefix); in
// the high-contention flavour every thread modifies every range.
type LLB struct {
	// ListLen is the number of list nodes.
	ListLen int
	// Iters is the number of search-modify operations per thread.
	Iters int
	// PerThread is the width of a thread's modify window; 0 means the
	// whole list (high contention).
	PerThread int

	name    string
	threads int
	list    *structures.List
}

// NewLLB builds the microbenchmark; high selects the contended flavour.
func NewLLB(listLen, iters int, high bool) *LLB {
	l := &LLB{ListLen: listLen, Iters: iters, name: "llb-l", PerThread: 16}
	if high {
		l.name = "llb-h"
		l.PerThread = 0
	}
	return l
}

func (l *LLB) Name() string { return l.name }

func (l *LLB) Setup(w *machine.World, threads int) {
	l.threads = threads
	l.list = structures.NewList(w.Alloc)
	pool := structures.NewPool(w.Alloc, l.ListLen, structures.ListNodeWords)
	d := structures.Direct{M: w.Mem}
	// Key k takes the pool's k-th record, and the keys go in from the
	// largest down, so each insert lands at the head and building the
	// list takes linear rather than quadratic time.
	nodes := make([]mem.Addr, l.ListLen)
	for k := range nodes {
		nodes[k] = pool.Get()
	}
	for k := l.ListLen - 1; k >= 0; k-- {
		l.list.Insert(d, nodes[k], uint64(k), 0)
	}
}

func (l *LLB) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*1013 + 61)
	for i := 0; i < l.Iters; i++ {
		var key uint64
		if l.PerThread == 0 {
			key = r.Uint64n(uint64(l.ListLen))
		} else {
			window := l.ListLen / l.threads
			off := r.Intn(l.PerThread) % window
			key = uint64(tid*window + off)
		}
		ctx.Atomic(func(tx machine.Tx) {
			v, ok := l.list.Find(tx, key)
			if !ok {
				panic("llb: key vanished")
			}
			l.list.Update(tx, key, v+1)
			tx.Work(60) // verify the modified element (post-write window)
		})
		ctx.Work(40)
	}
}

func (l *LLB) Check(w *machine.World) error {
	d := structures.Direct{M: w.Mem}
	var sum uint64
	for k := 0; k < l.ListLen; k++ {
		v, ok := l.list.Find(d, uint64(k))
		if !ok {
			return fmt.Errorf("llb: key %d missing", k)
		}
		sum += v
	}
	want := uint64(l.threads * l.Iters)
	if sum != want {
		return fmt.Errorf("llb: increment sum %d, want %d", sum, want)
	}
	return nil
}

// CAdd increments a hot shared variable and then sums a cluster of
// integers while still holding the variable speculatively modified — the
// paper's chained-add pattern where requester-speculates lets several
// transactions hold local copies of the hot line and serialize their
// commits through validation instead of aborting.
type CAdd struct {
	// Clusters is the number of clusters.
	Clusters int
	// ClusterLen is the number of integers per cluster.
	ClusterLen int
	// Iters is the number of operations per thread.
	Iters int

	threads  int
	shared   mem.Addr
	clusters mem.Addr
	sums     mem.Addr
}

// NewCAdd builds the microbenchmark.
func NewCAdd(clusters, clusterLen, iters int) *CAdd {
	return &CAdd{Clusters: clusters, ClusterLen: clusterLen, Iters: iters}
}

func (c *CAdd) Name() string { return "cadd" }

func (c *CAdd) cluster(i int) mem.Addr {
	words := (c.ClusterLen + mem.WordsPerLine - 1) / mem.WordsPerLine * mem.WordsPerLine
	return c.clusters + mem.Addr(i*words*mem.WordSize)
}

func (c *CAdd) Setup(w *machine.World, threads int) {
	c.threads = threads
	c.shared = w.Alloc.LineAligned(1)
	linesPer := (c.ClusterLen + mem.WordsPerLine - 1) / mem.WordsPerLine
	c.clusters = w.Alloc.Lines(c.Clusters * linesPer)
	d := structures.Direct{M: w.Mem}
	r := sim.NewRand(777)
	for i := 0; i < c.Clusters; i++ {
		base := c.cluster(i)
		for j := 0; j < c.ClusterLen; j++ {
			d.Store(base.Plus(j), r.Uint64n(50))
		}
	}
	c.sums = w.Alloc.Lines(threads)
}

func (c *CAdd) slot(tid int) mem.Addr { return c.sums + mem.Addr(tid*mem.LineSize) }

// clusterSum is the walker of the cluster summation: it adds up n
// consecutive words from base, each plus the hot variable's value s.
type clusterSum struct {
	base   mem.Addr
	n, j   int
	s, sum uint64
}

func (w *clusterSum) Next(v uint64) (mem.Addr, bool) {
	w.sum += v + w.s
	w.j++
	return w.base.Plus(w.j), w.j < w.n
}

func (c *CAdd) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*509 + 71)
	var acc uint64
	sum := new(clusterSum)
	for i := 0; i < c.Iters; i++ {
		cl := r.Intn(c.Clusters)
		ctx.Atomic(func(tx machine.Tx) {
			s := tx.Load(c.shared)
			tx.Store(c.shared, s+1) // hot line held modified from here on
			*sum = clusterSum{base: c.cluster(cl), n: c.ClusterLen, s: s}
			if sum.n > 0 {
				tx.Walk(sum.base, sum)
			}
			acc = sum.sum
		})
		ctx.Work(30)
	}
	ctx.Store(c.slot(tid), acc)
}

func (c *CAdd) Check(w *machine.World) error {
	got := w.Mem.ReadWord(c.shared)
	want := uint64(c.threads * c.Iters)
	if got != want {
		return fmt.Errorf("cadd: shared variable %d, want %d", got, want)
	}
	return nil
}
