package machine

import (
	"math"
	"runtime"
	"testing"

	"chats/internal/core"
)

// Whole-machine allocation benchmarks: the event path from thread op
// through network, directory and back must be allocation-free in steady
// state (pooled message structs + the engine's event free list), so
// allocs per simulated cycle is the end-to-end regression signal for
// the dispatch layer. Run as:
//
//	go test -bench WholeMachine -benchmem ./internal/machine
func benchMachine(b *testing.B, kind core.Kind) {
	b.Helper()
	policy, err := core.New(kind)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CycleLimit = 50_000_000
	b.ReportAllocs()
	var cycles, mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(cfg, policy)
		if err != nil {
			b.Fatal(err)
		}
		w := &counterWL{iters: 50}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		stats, err := m.Run(w)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms1)
		cycles += stats.Cycles
		mallocs += ms1.Mallocs - ms0.Mallocs
		b.StartTimer()
	}
	b.ReportMetric(float64(mallocs)/float64(cycles), "allocs/simcycle")
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/run")
}

// BenchmarkWholeMachineCHATS runs the contended-counter workload on the
// CHATS system: forwarding, validation and chain bookkeeping all active.
func BenchmarkWholeMachineCHATS(b *testing.B) { benchMachine(b, core.KindCHATS) }

// BenchmarkWholeMachineBaseline runs the same workload on the baseline
// requester-wins system.
func BenchmarkWholeMachineBaseline(b *testing.B) { benchMachine(b, core.KindBaseline) }

// workLoopWL is one thread issuing n Work(1) ops, the cheapest op there
// is, so a run costs little beyond the engine/thread switch per op.
type workLoopWL struct{ n int }

func (w *workLoopWL) Name() string      { return "work-loop" }
func (w *workLoopWL) Setup(*World, int) {}
func (w *workLoopWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < w.n; i++ {
		ctx.Work(1)
	}
}
func (w *workLoopWL) Check(*World) error { return nil }

// newHandoffMachine builds the one-core machine the handoff measurements
// run on.
func newHandoffMachine(tb testing.TB) *Machine {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 1
	m, err := New(cfg, core.NewBaseline())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkThreadHandoff times one simulated op end to end: the thread
// issuing Work(1), the engine scheduling and firing its completion, and
// the switch back to the thread. Run as:
//
//	go test -run '^$' -bench ThreadHandoff ./internal/machine
func BenchmarkThreadHandoff(b *testing.B) {
	m := newHandoffMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(&workLoopWL{n: b.N}); err != nil {
		b.Fatal(err)
	}
}

// TestThreadHandoffZeroAllocs: a thread op allocates nothing, so a run
// with 100,000 more ops costs no more mallocs than a 100-op run; only
// the per-run setup allocates.
func TestThreadHandoffZeroAllocs(t *testing.T) {
	// Each run's thread coroutine takes a goroutine from the current P's
	// free list; with several Ps the test can land on one whose list is
	// empty, and the runtime then allocates a new g that Mallocs counts.
	// One P, as testing.AllocsPerRun uses, keeps that cache warm.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Mallocs is process-wide and the race runtime now and then adds one,
	// so each size keeps its fewest mallocs over three runs.
	mallocs := func(ops int) uint64 {
		fewest := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			m := newHandoffMachine(t)
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			if _, err := m.Run(&workLoopWL{n: ops}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms1)
			fewest = min(fewest, ms1.Mallocs-ms0.Mallocs)
		}
		return fewest
	}
	short, long := mallocs(100), mallocs(100_100)
	if long > short {
		t.Errorf("100,000 extra ops allocated %d times (100 ops: %d mallocs, 100,100 ops: %d)",
			long-short, short, long)
	}
}

// runLockHold runs the two-core lock-hold workload: one thread holds the
// global fallback lock for hold cycles while the other spins for it.
// Building the machine is left out of a benchmark's timer.
func runLockHold(tb testing.TB, hold uint64) RunStats {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 2
	m, err := New(cfg, core.NewBaseline())
	if err != nil {
		tb.Fatal(err)
	}
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	stats, err := m.Run(&lockHoldWL{m: m, hold: hold})
	if err != nil {
		tb.Fatal(err)
	}
	return stats
}

// BenchmarkLockSpin times the spin path of a fallback-lock acquisition:
// the spinner's load of the held lock, its randomized wait and the
// reload, all at engine time. Each spin is one L1 hit, so ns/spin is
// the wall time over the run's L1 hits. Run as:
//
//	go test -run '^$' -bench LockSpin ./internal/machine
func BenchmarkLockSpin(b *testing.B) {
	b.ReportAllocs()
	stats := runLockHold(b, 100*uint64(b.N))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stats.L1Hits), "ns/spin")
}

// TestLockSpinZeroAllocs: spinning allocates nothing, so holding the
// lock 100x longer (about a thousand more spins) costs no more mallocs
// per run.
func TestLockSpinZeroAllocs(t *testing.T) {
	short := testing.AllocsPerRun(5, func() { runLockHold(t, 1_000) })
	long := testing.AllocsPerRun(5, func() { runLockHold(t, 100_000) })
	if long > short {
		t.Errorf("a 100x longer spin allocated %v times per run, a short one %v", long, short)
	}
}
