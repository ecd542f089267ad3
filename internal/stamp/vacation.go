package stamp

import (
	"fmt"

	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
	"chats/internal/structures"
)

// Vacation models the travel-reservation system: four shared tables
// (cars, flights, rooms, customers) held in treaps; client transactions
// run a handful of queries plus an occasional reservation (decrement of
// an availability counter). Contention is low — reads dominate — so all
// systems tie (Section VII).
type Vacation struct {
	// Relations is the number of rows per table.
	Relations int
	// TasksPerThread is the number of client sessions per thread.
	TasksPerThread int
	// Queries is the number of lookups per session.
	Queries int

	threads  int
	tables   [4]*structures.Treap
	reserved mem.Addr // per-thread success counters (one line each)
	initial  uint64
}

// NewVacation builds the kernel.
func NewVacation(relations, tasks int) *Vacation {
	return &Vacation{Relations: relations, TasksPerThread: tasks, Queries: 4}
}

func (v *Vacation) Name() string { return "vacation" }

func (v *Vacation) Setup(w *machine.World, threads int) {
	v.threads = threads
	r := sim.NewRand(12345)
	for t := range v.tables {
		v.tables[t] = structures.NewTreap(w.Alloc)
		// Rows k = 1..Relations, one line-aligned record each, allocated
		// and drawn in key order.
		v.tables[t].Build(w.Mem, v.Relations, func(i int) structures.TreapNode {
			return structures.TreapNode{
				Addr: w.Alloc.LineAligned(structures.TreapNodeWords),
				Key:  uint64(i + 1), Val: 100, Prio: r.Uint64(),
			}
		})
	}
	v.initial = uint64(4 * v.Relations * 100)
	v.reserved = w.Alloc.Lines(threads)
}

func (v *Vacation) slot(tid int) mem.Addr { return v.reserved + mem.Addr(tid*mem.LineSize) }

func (v *Vacation) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(uint64(tid)*9973 + 29)
	success := uint64(0)
	for i := 0; i < v.TasksPerThread; i++ {
		table := v.tables[r.Intn(4)]
		resKey := r.Uint64n(uint64(v.Relations)) + 1
		var qk [8]uint64
		for q := 0; q < v.Queries; q++ {
			qk[q] = r.Uint64n(uint64(v.Relations)) + 1
		}
		ctx.Work(80) // session planning (private)
		booked := false
		ctx.Atomic(func(tx machine.Tx) {
			booked = false
			for q := 0; q < v.Queries; q++ {
				table := v.tables[(int(qk[q])+q)%4]
				table.Find(tx, qk[q])
			}
			if avail, ok := table.Find(tx, resKey); ok && avail > 0 {
				table.Update(tx, resKey, avail-1)
				booked = true
			}
		})
		if booked {
			success++
		}
	}
	ctx.Store(v.slot(tid), success)
}

func (v *Vacation) Check(w *machine.World) error {
	d := structures.Direct{M: w.Mem}
	var remaining uint64
	for t := range v.tables {
		// Scan yields keys in strictly ascending order, so row k is the
		// k-th key exactly when rows 1..k are all present.
		var rows, missing uint64
		err := v.tables[t].Scan(d, func(key, val uint64) {
			rows++
			if key != rows && missing == 0 {
				missing = rows
			}
			remaining += val
		})
		if missing == 0 && rows < uint64(v.Relations) {
			missing = rows + 1 // the last rows are gone
		}
		switch {
		case err != nil:
			return fmt.Errorf("vacation: table %d: %w", t, err)
		case missing != 0:
			return fmt.Errorf("vacation: table %d row %d missing", t, missing)
		case rows != uint64(v.Relations):
			return fmt.Errorf("vacation: table %d holds %d rows, want %d", t, rows, v.Relations)
		}
	}
	var booked uint64
	for t := 0; t < v.threads; t++ {
		booked += w.Mem.ReadWord(v.slot(t))
	}
	if remaining+booked != v.initial {
		return fmt.Errorf("vacation: %d remaining + %d booked != %d initial",
			remaining, booked, v.initial)
	}
	return nil
}
