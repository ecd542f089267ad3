// Package stamp re-implements the transactional kernels of the STAMP
// benchmarks the paper evaluates (Section VI-C), scaled to the simulator
// and preserving each benchmark's sharing pattern as described in
// Section VII: kmeans' migratory center updates, genome's hash dedup and
// producer-consumer matching, intruder's queue-pop/tree-rebalance,
// labyrinth's long grid transactions, ssca2's tiny sparse updates,
// vacation's read-mostly table lookups, and yada's long write-once
// retriangulation transactions.
package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
)

// KMeans models the contended center-update kernel: each transaction
// folds one point into one cluster center (read-modify-write of the
// center's accumulators, written once per transaction — the migratory
// pattern CHATS exploits, Section VII). Two global counters mirror
// STAMP's global-delta transactions.
type KMeans struct {
	// Clusters is the number of centers: few centers = high contention
	// (kmeans-h), many = low (kmeans-l).
	Clusters int
	// PointsPerThread is the number of points each thread classifies.
	PointsPerThread int
	// Dims is the number of accumulated dimensions per center.
	Dims int
	// ComputeCycles models the per-point distance computation.
	ComputeCycles uint64

	name    string
	centers mem.Addr // per center: line-aligned {count, dim0..dimN}
	globals mem.Addr // {totalPoints, totalDelta}
	stride  int
	threads int
}

// NewKMeans builds the kernel; high selects the contended variant name.
func NewKMeans(clusters, pointsPerThread int, high bool) *KMeans {
	name := "kmeans-l"
	if high {
		name = "kmeans-h"
	}
	return &KMeans{
		Clusters:        clusters,
		PointsPerThread: pointsPerThread,
		Dims:            16,
		ComputeCycles:   200,
		name:            name,
	}
}

func (k *KMeans) Name() string { return k.name }

func (k *KMeans) center(c int) mem.Addr {
	return k.centers + mem.Addr(c*k.stride)
}

func (k *KMeans) Setup(w *machine.World, threads int) {
	k.threads = threads
	k.stride = ((1+k.Dims)*mem.WordSize + mem.LineSize - 1) / mem.LineSize * mem.LineSize
	k.centers = w.Alloc.Lines(k.Clusters * k.stride / mem.LineSize)
	k.globals = w.Alloc.LineAligned(2)
}

func (k *KMeans) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*99991 + 7)
	for i := 0; i < k.PointsPerThread; i++ {
		c := r.Intn(k.Clusters)
		var deltas [8]uint64
		for d := range deltas {
			deltas[d] = r.Uint64n(100)
		}
		ctx.Work(k.ComputeCycles) // nearest-center search (private data)
		ctx.Atomic(func(tx machine.Tx) {
			base := k.center(c)
			tx.Add(base, 1)
			for d := 0; d < k.Dims; d++ {
				tx.Add(base.Plus(1+d), deltas[d%len(deltas)])
				tx.Work(3) // the floating-point accumulate
			}
		})
		// The two small global-variable transactions of the STAMP kernel.
		if i%8 == 7 {
			ctx.Atomic(func(tx machine.Tx) {
				tx.Add(k.globals, 8)
			})
			ctx.Atomic(func(tx machine.Tx) {
				tx.Add(k.globals.Plus(1), 1)
			})
		}
	}
}

func (k *KMeans) Check(w *machine.World) error {
	total := uint64(0)
	for c := 0; c < k.Clusters; c++ {
		total += w.Mem.ReadWord(k.center(c))
	}
	want := uint64(k.threads * k.PointsPerThread)
	if total != want {
		return fmt.Errorf("kmeans: center counts sum to %d, want %d", total, want)
	}
	return nil
}
