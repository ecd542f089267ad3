package machine

import (
	"errors"
	"sync"
	"testing"

	"chats/internal/core"
)

// In-process concurrency equivalence: a machine shares no mutable state
// with any other, so a run is bit-identical whether it runs alone or
// beside copies of itself on concurrent goroutines — the property the
// cell-level sweep pool (-j) relies on. Under -race this also catches
// any package-level state a run writes.

// runConcurrent runs n fresh copies of one cell on n goroutines and
// returns each copy's RunStats and error.
func runConcurrent(kind core.Kind, mk func() Workload, cfg Config, n int) ([]RunStats, []error) {
	stats := make([]RunStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			policy, err := core.New(kind)
			if err != nil {
				errs[i] = err
				return
			}
			m, err := New(cfg, policy)
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = m.Run(mk())
		}(i)
	}
	wg.Wait()
	return stats, errs
}

func TestIntraParallelEquivalence(t *testing.T) {
	cases := []struct {
		name string
		kind core.Kind
		mk   func() Workload
	}{
		{"counter-chats", core.KindCHATS, func() Workload { return &counterWL{iters: 30} }},
		{"counter-baseline", core.KindBaseline, func() Workload { return &counterWL{iters: 30} }},
		{"bank-chats", core.KindCHATS, func() Workload { return &bankWL{accounts: 64, iters: 40} }},
		{"migratory-chats", core.KindCHATS, func() Workload { return &migratoryWL{slots: 4, iters: 25} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runWL(t, tc.kind, tc.mk(), testCfg())
			stats, errs := runConcurrent(tc.kind, tc.mk, testCfg(), 3)
			for i := range stats {
				if errs[i] != nil {
					t.Fatalf("concurrent copy %d: %v", i, errs[i])
				}
				if stats[i] != ref {
					t.Errorf("concurrent copy %d diverged from the lone run:\nalone:      %+v\nconcurrent: %+v",
						i, ref, stats[i])
				}
			}
		})
	}
}

// TestWaveSerialFraction pins Machine.WaveStats on the serial engine:
// every fired event is its own one-event serial wave, so the three
// counters are equal and nonzero, and, like every other run figure,
// identical at any directory bank count.
func TestWaveSerialFraction(t *testing.T) {
	measure := func(banks int) (events, waves, serial uint64) {
		policy, err := core.New(core.KindCHATS)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testCfg()
		cfg.DirBanks = banks
		m, err := New(cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(&counterWL{iters: 30}); err != nil {
			t.Fatal(err)
		}
		return m.WaveStats()
	}
	events, waves, serial := measure(1)
	if events == 0 || waves != events || serial != events {
		t.Fatalf("WaveStats = (%d, %d, %d), want three equal nonzero counts", events, waves, serial)
	}
	if e, w, s := measure(4); e != events || w != waves || s != serial {
		t.Errorf("DirBanks=4: WaveStats (%d,%d,%d) diverged from one bank (%d,%d,%d)",
			e, w, s, events, waves, serial)
	}
}

// panicWL is the counter workload with one thread that panics after its
// first transaction, while the others are mid-run.
type panicWL struct {
	counterWL
	bad int
}

func (w *panicWL) Thread(ctx Ctx, tid int) {
	if tid == w.bad {
		ctx.Atomic(func(tx Tx) { tx.Store(w.addr, tx.Load(w.addr)+1) })
		panic("workload bug")
	}
	w.counterWL.Thread(ctx, tid)
}

// TestThreadPanicFailsRun: a panicking Thread fails its run with a
// *ThreadPanic naming the thread and carrying the value and stack; the
// other threads are unwound and the process survives.
func TestThreadPanicFailsRun(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&panicWL{counterWL: counterWL{iters: 30}, bad: 5})
	var tp *ThreadPanic
	if !errors.As(err, &tp) {
		t.Fatalf("Run error = %v, want a *ThreadPanic", err)
	}
	if tp.Thread != 5 || tp.Value != "workload bug" || len(tp.Stack) == 0 {
		t.Errorf("ThreadPanic = {Thread: %d, Value: %v, %d stack bytes}, want thread 5, \"workload bug\", a stack",
			tp.Thread, tp.Value, len(tp.Stack))
	}
}
