package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
)

// Yada models Delaunay mesh refinement: long transactions that read a
// cavity of neighboring triangle records and retriangulate, writing each
// touched record exactly once — the migratory write-once pattern
// Section VII credits for yada's large CHATS gains ("whenever a
// transaction modifies a memory location, it would not modify it
// again").
type Yada struct {
	// Triangles is the mesh size (one line-aligned record each).
	Triangles int
	// RefinesPerThread is the number of cavity retriangulations.
	RefinesPerThread int
	// Cavity is how many neighbor records a refinement reads.
	Cavity int
	// Updates is how many of them it rewrites (once each).
	Updates int

	threads int
	tris    mem.Addr
}

// NewYada builds the kernel.
func NewYada(triangles, refines int) *Yada {
	return &Yada{Triangles: triangles, RefinesPerThread: refines, Cavity: 12, Updates: 4}
}

func (y *Yada) Name() string { return "yada" }

func (y *Yada) tri(i int) mem.Addr { return y.tris + mem.Addr(i*mem.LineSize) }

func (y *Yada) Setup(w *machine.World, threads int) {
	y.threads = threads
	y.tris = w.Alloc.Lines(y.Triangles)
}

func (y *Yada) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*2879 + 53)
	for i := 0; i < y.RefinesPerThread; i++ {
		seed := r.Intn(y.Triangles)
		// The cavity is a deterministic neighborhood of the seed, so two
		// threads refining nearby triangles overlap on some records.
		cav := make([]int, y.Cavity)
		for c := range cav {
			cav[c] = (seed + c*7) % y.Triangles
		}
		ctx.Atomic(func(tx machine.Tx) {
			var acc uint64
			for _, c := range cav {
				acc += tx.Load(y.tri(c))
				tx.Work(20) // in-cavity geometric checks
			}
			tx.Work(150) // compute the retriangulation
			// Retriangulate: write the first Updates records once each.
			for u := 0; u < y.Updates; u++ {
				a := y.tri(cav[u])
				tx.Store(a.Plus(1), acc+uint64(u)) // new geometry
				tx.Add(a, 1)                       // refinement counter
			}
		})
		ctx.Work(100) // enqueue new bad triangles (private)
	}
}

func (y *Yada) Check(w *machine.World) error {
	var total uint64
	for i := 0; i < y.Triangles; i++ {
		total += w.Mem.ReadWord(y.tri(i))
	}
	want := uint64(y.threads * y.RefinesPerThread * y.Updates)
	if total != want {
		return fmt.Errorf("yada: refinement count %d, want %d", total, want)
	}
	return nil
}
