package sweep_test

import (
	"errors"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sweep"
)

// incWL: every thread increments one shared word a few times; with
// panicTID >= 0 that thread panics after its first increment.
type incWL struct {
	panicTID int
	addr     mem.Addr
}

func (w *incWL) Name() string { return "inc" }

func (w *incWL) Setup(wd *machine.World, threads int) { w.addr = wd.Alloc.LineAligned(1) }

func (w *incWL) Thread(ctx machine.Ctx, tid int) {
	for i := 0; i < 5; i++ {
		ctx.Atomic(func(tx machine.Tx) { tx.Store(w.addr, tx.Load(w.addr)+1) })
		if tid == w.panicTID {
			panic("workload bug")
		}
	}
}

func (w *incWL) Check(*machine.World) error { return nil }

// TestMapWorkloadPanicFailsOnlyItsCell: a cell whose workload Thread
// panics fails with a *machine.ThreadPanic, the cells before it complete
// with results, and the process survives to report it.
func TestMapWorkloadPanicFailsOnlyItsCell(t *testing.T) {
	const n = 4
	cycles := make([]uint64, n)
	err := sweep.Map(1, n, nil, func(i int) error {
		cfg := machine.DefaultConfig()
		cfg.Cores = 4
		policy, err := core.New(core.KindCHATS)
		if err != nil {
			return err
		}
		m, err := machine.New(cfg, policy)
		if err != nil {
			return err
		}
		w := &incWL{panicTID: -1}
		if i == n-1 {
			w.panicTID = 2
		}
		st, err := m.Run(w)
		cycles[i] = st.Cycles
		return err
	})
	var tp *machine.ThreadPanic
	if !errors.As(err, &tp) {
		t.Fatalf("Map error = %v, want a *machine.ThreadPanic", err)
	}
	var cp *sweep.CellPanic
	if errors.As(err, &cp) {
		t.Errorf("panic escaped the machine as a CellPanic: %v", cp)
	}
	if tp.Thread != 2 {
		t.Errorf("ThreadPanic.Thread = %d, want 2", tp.Thread)
	}
	for i := 0; i < n-1; i++ {
		if cycles[i] == 0 || cycles[i] != cycles[0] {
			t.Errorf("cell %d: %d cycles, want the same nonzero count as cell 0 (%d)", i, cycles[i], cycles[0])
		}
	}
}
