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
