package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
	"chats/internal/structures"
)

// Genome models the two transactional phases of gene sequencing:
// deduplicating segments through a shared hash set, then overlap
// matching, where threads claim segments with write-once flags — the
// producer-consumer pattern Section VII credits for genome's 75%
// conflict reduction under CHATS.
type Genome struct {
	// Segments is the number of distinct segment keys.
	Segments int
	// InsertsPerThread is phase-1 work (duplicates included).
	InsertsPerThread int
	// MatchesPerThread is phase-2 work.
	MatchesPerThread int
	// Window is the claim-scan window width in phase 2.
	Window int

	threads int
	table   *structures.HashSet
	pools   []*structures.Pool
	claims  mem.Addr // one line-aligned flag per segment
	links   mem.Addr // matched successor per segment
}

// NewGenome builds the kernel.
func NewGenome(segments, inserts, matches int) *Genome {
	return &Genome{
		Segments:         segments,
		InsertsPerThread: inserts,
		MatchesPerThread: matches,
		Window:           8,
	}
}

func (g *Genome) Name() string { return "genome" }

func (g *Genome) claim(i int) mem.Addr { return g.claims + mem.Addr(i*mem.LineSize) }
func (g *Genome) link(i int) mem.Addr  { return g.links + mem.Addr(i*mem.WordSize) }

func (g *Genome) Setup(w *machine.World, threads int) {
	g.threads = threads
	g.table = structures.NewHashSet(w.Alloc, 64)
	g.pools = make([]*structures.Pool, threads)
	for t := range g.pools {
		g.pools[t] = structures.NewPool(w.Alloc, g.InsertsPerThread+1, structures.ListNodeWords)
	}
	g.claims = w.Alloc.Lines(g.Segments)
	g.links = w.Alloc.Lines((g.Segments*mem.WordSize + mem.LineSize - 1) / mem.LineSize)
}

// claimScan is the walker of the phase-2 claim scan: it loads the
// claim flags of a window of segments from start and stops at the first
// free one, segment (start+o) mod Segments.
type claimScan struct {
	g        *Genome
	start, o int
	free     bool
}

func (w *claimScan) Next(v uint64) (mem.Addr, bool) {
	if v == 0 {
		w.free = true
		return 0, false
	}
	w.o++
	if w.o == w.g.Window {
		return 0, false
	}
	return w.g.claim((w.start + w.o) % w.g.Segments), true
}

func (g *Genome) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*7817 + 13)
	pool := g.pools[tid]
	scan := new(claimScan)

	// Phase 1: segment deduplication. Keys are drawn from a space half
	// the insert count, so duplicates are common and the insert path is
	// read-mostly after warm-up.
	for i := 0; i < g.InsertsPerThread; i++ {
		key := r.Uint64n(uint64(g.Segments))
		node := pool.Get() // pre-allocate outside the transaction
		ctx.Work(40)       // hashing the segment contents (private)
		ctx.Atomic(func(tx machine.Tx) {
			if _, found := g.table.Find(tx, key); !found {
				g.table.Insert(tx, node, key, key)
			}
		})
	}

	// Phase 2: overlap matching. A thread scans a window of segments and
	// claims the first unclaimed one (write-once flag). Competing threads
	// read freshly claimed flags — speculative forwarding of the claimed
	// value lets them skip ahead without aborting the claimer.
	for i := 0; i < g.MatchesPerThread; i++ {
		start := r.Intn(g.Segments)
		succ := r.Uint64n(uint64(g.Segments)) + 1
		ctx.Atomic(func(tx machine.Tx) {
			if g.Window <= 0 {
				return
			}
			*scan = claimScan{g: g, start: start}
			tx.Walk(g.claim(start), scan)
			if !scan.free {
				return
			}
			idx := (start + scan.o) % g.Segments
			tx.Store(g.claim(idx), uint64(tid)+1)
			tx.Work(150) // compute the overlap extension
			tx.Store(g.link(idx), succ)
		})
	}
}

func (g *Genome) Check(w *machine.World) error {
	if got := g.table.Len(structures.Direct{M: w.Mem}); got > g.Segments {
		return fmt.Errorf("genome: %d table entries exceed %d distinct keys", got, g.Segments)
	}
	claimed := 0
	for i := 0; i < g.Segments; i++ {
		v := w.Mem.ReadWord(g.claim(i))
		if v > uint64(g.threads) {
			return fmt.Errorf("genome: claim %d has impossible owner %d", i, v)
		}
		if v != 0 {
			claimed++
			if w.Mem.ReadWord(g.link(i)) == 0 {
				return fmt.Errorf("genome: segment %d claimed but not linked", i)
			}
		} else if w.Mem.ReadWord(g.link(i)) != 0 {
			return fmt.Errorf("genome: segment %d linked but not claimed", i)
		}
	}
	if claimed == 0 {
		return fmt.Errorf("genome: no segments were claimed")
	}
	return nil
}
