package machine

import (
	"fmt"
	"testing"

	"chats/internal/core"
	"chats/internal/mem"
)

// lockWordOp is one completed operation on the contended lock word.
type lockWordOp struct {
	core int
	op   OpKind
	val  uint64
	ok   bool
}

// lockWordLog records every operation on the workload's lock word, in
// emission order.
type lockWordLog struct {
	NopTracer
	w   *lockHoldWL
	ops []lockWordOp
}

func (l *lockWordLog) Op(_ uint64, core int, op OpKind, _ bool, addr mem.Addr, val, _ uint64, ok bool) {
	if addr == l.w.lock {
		l.ops = append(l.ops, lockWordOp{core, op, val, ok})
	}
}

// lockHoldWL: thread 0 holds a lock word (the global fallback lock, or the
// STM version lock of the data word) for hold cycles by plain stores;
// thread 1 meanwhile takes the fallback path to write the data word and
// has to spin for the lock.
type lockHoldWL struct {
	m    *Machine
	stm  bool
	hold uint64
	data mem.Addr
	// lock is the word thread 1 spins on; held and free are the values
	// the holder leaves in it.
	lock       mem.Addr
	held, free uint64
}

func (w *lockHoldWL) Name() string { return "lock-hold" }
func (w *lockHoldWL) Setup(wd *World, threads int) {
	w.data = wd.Alloc.LineAligned(1)
	w.lock, w.held, w.free = w.m.lockAddr, 1, 0
	if w.stm {
		w.lock, w.held, w.free = w.m.stmVerAddr(w.data), 1, 2
	}
}

func (w *lockHoldWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Store(w.lock, w.held)
		ctx.Work(w.hold)
		ctx.Store(w.lock, w.free)
	case 1:
		ctx.Work(500) // let the holder take the word first
		ctx.(*tctx).runFallback(func(tx Tx) { tx.Store(w.data, 7) })
	}
}

func (w *lockHoldWL) Check(wd *World) error {
	if got := wd.Mem.ReadWord(w.data); got != 7 {
		return fmt.Errorf("data = %d, want 7", got)
	}
	return nil
}

// TestSpinAcquire: a thread spinning on a held lock word (the global
// lock, or an odd STM version word) takes it on its first reload after
// the holder releases it, and the run's cycles and statistics are the
// ones the thread-side test-and-test-and-set loop produced.
func TestSpinAcquire(t *testing.T) {
	for _, tc := range []struct {
		name string
		stm  bool
		want RunStats
	}{
		// The statistics of a thread-side test-and-test-and-set loop.
		{"global", false, RunStats{Cycles: 2458, Fallbacks: 1, Flits: 58, Messages: 26,
			L1Hits: 20, L1Misses: 4, DirFwds: 2, DirInvs: 2, FallbackBodyCycles: 158}},
		{"stm", true, RunStats{Cycles: 2592, Fallbacks: 1, Flits: 65, Messages: 29,
			L1Hits: 135, L1Misses: 5, DirFwds: 2, DirInvs: 2, FallbackSTMCommits: 1, FallbackBodyCycles: 2090}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			cfg.Cores = 2
			if tc.stm {
				cfg.Fallback.Kind = FallbackSTM
			}
			m, err := New(cfg, core.NewBaseline())
			if err != nil {
				t.Fatal(err)
			}
			w := &lockHoldWL{m: m, stm: tc.stm, hold: 2000}
			log := &lockWordLog{w: w}
			m.SetTracer(log)
			stats, err := m.Run(w)
			if err != nil {
				t.Fatal(err)
			}

			// Split the spinner's operations at the holder's release.
			var before, after []lockWordOp
			released := false
			for _, o := range log.ops {
				switch {
				case o.core == 0 && o.op == OpStore && o.val == w.free:
					released = true
				case o.core != 1:
				case released:
					after = append(after, o)
				default:
					before = append(before, o)
				}
			}
			if !released {
				t.Fatal("holder never released the lock word")
			}
			spins := 0
			for _, o := range before {
				if o.op != OpLoad || o.val != w.held {
					t.Fatalf("before the release the spinner did %+v, want only loads of %d", o, w.held)
				}
				spins++
			}
			if spins < 2 {
				t.Fatalf("spinner tested the held word %d times, want it to spin", spins)
			}
			if len(after) < 2 || after[0] != (lockWordOp{1, OpLoad, w.free, true}) ||
				after[1] != (lockWordOp{1, OpCAS, w.free, true}) {
				t.Fatalf("after the release the spinner did %+v, want a load of %d then a winning CAS", after, w.free)
			}

			stats.System, stats.Workload = "", ""
			if stats != tc.want {
				t.Errorf("stats = %#v\nwant %#v", stats, tc.want)
			}
		})
	}
}
