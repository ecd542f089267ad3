package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/sim"
	"chats/internal/structures"
)

// Intruder models the two transactional phases of STAMP's network
// intrusion detector: "capture" pops a packet from a shared FIFO with a
// time gap between reading and advancing the head pointer (the
// starving-writer pathology of Section VII), and "reassembly" inserts
// the fragment into a shared tree whose rotations occasionally shake the
// whole access path. A third transaction pushes completed flows to a
// result queue.
type Intruder struct {
	// Packets is the total number of packets to process.
	Packets int
	// GapCycles is the capture-phase read-to-write gap.
	GapCycles uint64

	threads int
	inQ     *structures.Queue
	outQ    *structures.Queue
	tree    *structures.Treap
	pools   []*structures.Pool
}

// NewIntruder builds the kernel.
func NewIntruder(packets int) *Intruder {
	return &Intruder{Packets: packets, GapCycles: 40}
}

func (in *Intruder) Name() string { return "intruder" }

func (in *Intruder) Setup(w *machine.World, threads int) {
	in.threads = threads
	in.inQ = structures.NewQueue(w.Alloc, in.Packets+1)
	in.outQ = structures.NewQueue(w.Alloc, in.Packets+1)
	in.tree = structures.NewTreap(w.Alloc)
	in.pools = make([]*structures.Pool, threads)
	for t := range in.pools {
		in.pools[t] = structures.NewPool(w.Alloc, in.Packets+1, structures.TreapNodeWords)
	}
	d := structures.Direct{M: w.Mem}
	for p := 0; p < in.Packets; p++ {
		if !in.inQ.Push(d, uint64(p)+1) {
			panic("intruder: input queue overflow during setup")
		}
	}
}

func (in *Intruder) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*6151 + 17)
	pool := in.pools[tid]
	for {
		var pkt uint64
		var ok bool
		// Capture: pop with a decode gap inside the transaction.
		ctx.Atomic(func(tx machine.Tx) {
			pkt, ok = in.inQ.PopGap(tx, func() { tx.Work(in.GapCycles) })
		})
		if !ok {
			return
		}
		ctx.Work(120) // fragment decoding (private)

		// Reassembly: insert into the shared tree; the randomized
		// priority occasionally rotates high up the tree, invalidating
		// other traversals — the paper's rebalance-induced aborts.
		key := pkt * 2654435761 % 1000003
		prio := r.Uint64()
		node := pool.Get() // pre-allocate outside the transaction
		ctx.Atomic(func(tx machine.Tx) {
			in.tree.Insert(tx, node, key, pkt, prio)
		})
		ctx.Work(80) // detection over the reassembled flow (private)

		// Deliver the verdict.
		ctx.Atomic(func(tx machine.Tx) {
			if !in.outQ.Push(tx, pkt) {
				panic("intruder: result queue overflow")
			}
		})
	}
}

func (in *Intruder) Check(w *machine.World) error {
	d := structures.Direct{M: w.Mem}
	if got := in.inQ.Len(d); got != 0 {
		return fmt.Errorf("intruder: %d packets left in input queue", got)
	}
	if got := in.outQ.Len(d); got != in.Packets {
		return fmt.Errorf("intruder: %d results, want %d", got, in.Packets)
	}
	fragments := 0
	if err := in.tree.Scan(d, func(_, _ uint64) { fragments++ }); err != nil {
		return fmt.Errorf("intruder: %w", err)
	}
	if fragments != in.Packets {
		return fmt.Errorf("intruder: tree holds %d fragments, want %d", fragments, in.Packets)
	}
	// Every packet id delivered exactly once.
	seen := make([]bool, in.Packets+1)
	for i := 0; i < in.Packets; i++ {
		v, ok := in.outQ.Pop(d)
		if !ok || v == 0 || v > uint64(in.Packets) || seen[v] {
			return fmt.Errorf("intruder: bad or duplicate result %d", v)
		}
		seen[v] = true
	}
	return nil
}
