package machine

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"chats/internal/coherence"
	"chats/internal/core"
	"chats/internal/faults"
	"chats/internal/htm"
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
// counters are equal and nonzero.
func TestWaveSerialFraction(t *testing.T) {
	policy, err := core.New(core.KindCHATS)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(testCfg(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(&counterWL{iters: 30}); err != nil {
		t.Fatal(err)
	}
	events, waves, serial := m.WaveStats()
	if events == 0 || waves != events || serial != events {
		t.Fatalf("WaveStats = (%d, %d, %d), want three equal nonzero counts", events, waves, serial)
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

// panicProbePolicy is a policy whose conflict resolution panics: a bug
// that fires inside an engine event while every thread is suspended.
type panicProbePolicy struct{ htm.Policy }

func (panicProbePolicy) DecideProbe(*htm.TxState, htm.ProbeContext) (htm.ProbeDecision, coherence.PiC) {
	panic("policy bug")
}

// TestNoThreadLeakAfterFailedRun: however a run fails, Run returns with
// every thread unwound, so the process is back at its pre-Run goroutine
// count — including a thread parked on an op the engine never answered,
// and a run that panics out of an engine event.
func TestNoThreadLeakAfterFailedRun(t *testing.T) {
	spinning := testCfg()
	spinning.CycleLimit = 2000 // all 16 threads are still inside Atomic
	livelock := testCfg()
	livelock.Cores = 4
	livelock.CycleLimit = 2_000_000_000
	livelock.WatchdogCycles = 300_000
	livelock.Faults = &faults.Plan{Nack: 1}
	// Thread 0 halts the run with its Begin unanswered.
	starved := testCfg()
	starved.Cores = 2
	starved.MaxAttempts = 15
	// The policy itself never falls back.
	never := htm.Traits{Retries: 1 << 30}
	cases := []struct {
		name   string
		policy htm.Policy
		cfg    Config
		w      Workload
		want   any // nil: any error; "panic": Run panics
	}{
		{"cycle-limit", core.NewCHATS(), spinning, &counterWL{iters: 100}, nil},
		{"watchdog", core.NewBaselineWith(never), livelock, &counterWL{iters: 10}, new(*LivelockError)},
		{"max-attempts", core.NewBaselineWith(never), starved, &starveWL{}, new(*LivelockError)},
		{"thread-panic", core.NewCHATS(), testCfg(), &panicWL{counterWL: counterWL{iters: 30}, bad: 5}, new(*ThreadPanic)},
		{"policy-panic", panicProbePolicy{core.NewCHATS()}, testCfg(), &counterWL{iters: 30}, "panic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				_, err = m.Run(tc.w)
			}()
			if tc.want == "panic" {
				if panicked != "policy bug" {
					t.Fatalf("Run recovered %v (error %v), want the policy's panic", panicked, err)
				}
			} else if panicked != nil {
				t.Fatalf("Run panicked: %v", panicked)
			} else if err == nil || (tc.want != nil && !errors.As(err, tc.want)) {
				t.Fatalf("Run error = %v, want a %T", err, tc.want)
			}
			// Fewer is fine: an earlier test's goroutine may exit meanwhile.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before Run, %d after", before, after)
			}
		})
	}
}
