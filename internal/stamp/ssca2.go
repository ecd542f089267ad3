package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
)

// SSCA2 models kernel 1 of STAMP's ssca2 (graph construction): tiny
// transactions appending edges to adjacency counters spread over a large
// array — almost no contention (Section VII: 0–10 aborts total), so all
// systems perform identically.
type SSCA2 struct {
	// Nodes is the size of the adjacency array (one line per node).
	Nodes int
	// EdgesPerThread is the number of edge insertions per thread.
	EdgesPerThread int

	threads int
	adj     mem.Addr
}

// NewSSCA2 builds the kernel.
func NewSSCA2(nodes, edges int) *SSCA2 {
	return &SSCA2{Nodes: nodes, EdgesPerThread: edges}
}

func (s *SSCA2) Name() string { return "ssca2" }

func (s *SSCA2) node(i int) mem.Addr { return s.adj + mem.Addr(i*mem.LineSize) }

func (s *SSCA2) Setup(w *machine.World, threads int) {
	s.threads = threads
	s.adj = w.Alloc.Lines(s.Nodes)
}

func (s *SSCA2) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*4241 + 3)
	for i := 0; i < s.EdgesPerThread; i++ {
		u := r.Intn(s.Nodes)
		v := r.Intn(s.Nodes)
		ctx.Work(30) // pick the edge from the generator (private)
		ctx.Atomic(func(tx machine.Tx) {
			tx.Add(s.node(u), 1)
			tx.Add(s.node(v), 1)
		})
	}
}

func (s *SSCA2) Check(w *machine.World) error {
	var total uint64
	for i := 0; i < s.Nodes; i++ {
		total += w.Mem.ReadWord(s.node(i))
	}
	want := uint64(2 * s.threads * s.EdgesPerThread)
	if total != want {
		return fmt.Errorf("ssca2: degree sum %d, want %d", total, want)
	}
	return nil
}
