package machine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"chats/internal/core"
	"chats/internal/mem"
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

// opLoopWL is one thread calling op n times on one word.
type opLoopWL struct {
	n  int
	op func(ctx Ctx, a mem.Addr)
	a  mem.Addr
}

func (w *opLoopWL) Name() string                 { return "op-loop" }
func (w *opLoopWL) Setup(wd *World, threads int) { w.a = wd.Alloc.LineAligned(1) }
func (w *opLoopWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < w.n; i++ {
		w.op(ctx, w.a)
	}
}
func (w *opLoopWL) Check(*World) error { return nil }

// The ops the handoff measurements loop over: Work(1), the cheapest
// posted op there is; a Load, which suspends the thread until its
// reply; and an Add, a Load and a Store posted as one op.
func workOp(ctx Ctx, _ mem.Addr) { ctx.Work(1) }
func loadOp(ctx Ctx, a mem.Addr) { ctx.Load(a) }
func addOp(ctx Ctx, a mem.Addr)  { ctx.Add(a, 1) }

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

// BenchmarkThreadHandoff times one posted op end to end: the thread
// queuing Work(1) and the engine scheduling and firing its completion.
// The thread resumes only once per full queue (postCap ops), so this
// prices a posted op, not a switch between engine and thread;
// BenchmarkYieldedLoad prices that. Run as:
//
//	go test -run '^$' -bench 'ThreadHandoff|YieldedLoad|PostedAdd' ./internal/machine
func BenchmarkThreadHandoff(b *testing.B) { benchOpLoop(b, workOp) }

// BenchmarkYieldedLoad times a Load that hits in L1: the thread
// suspends, the engine runs the access, and the thread resumes with
// the value, once per op.
func BenchmarkYieldedLoad(b *testing.B) { benchOpLoop(b, loadOp) }

// BenchmarkPostedAdd times an Add that hits in L1: the engine runs its
// load and then its store, and the thread resumes once per full queue.
func BenchmarkPostedAdd(b *testing.B) { benchOpLoop(b, addOp) }

// benchOpLoop runs b.N calls of op on the one-core handoff machine.
func benchOpLoop(b *testing.B, op func(Ctx, mem.Addr)) {
	m := newHandoffMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(&opLoopWL{n: b.N, op: op}); err != nil {
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
			if _, err := m.Run(&opLoopWL{n: ops, op: workOp}); err != nil {
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
// The run lasts a little longer than hold, so the cycle limit grows with
// it. Building the machine is left out of a benchmark's timer.
func runLockHold(tb testing.TB, hold uint64) RunStats {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.CycleLimit = max(cfg.CycleLimit, 2*hold)
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

// newMachine builds a machine of the given core count running the
// baseline system.
func newMachine(tb testing.TB, cores int) *Machine {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Cores = cores
	m, err := New(cfg, core.NewBaseline())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkMachineNew times building a machine: every core's L1, node
// and directory state, and the empty simulated memory. Run as:
//
//	go test -run '^$' -bench MachineNew -benchmem ./internal/machine
func BenchmarkMachineNew(b *testing.B) {
	for _, cores := range []int{16, 256} {
		b.Run(fmt.Sprintf("c%d", cores), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newMachine(b, cores)
			}
		})
	}
}

// TestMachineNewBytes pins the bytes one machine.New allocates. The
// simulated state is allocated on first touch, L1 sets on their first
// insert and memory a page at a time on its first write, so building a
// machine costs a small fraction of its caches' capacity.
func TestMachineNewBytes(t *testing.T) {
	for _, c := range []struct {
		cores int
		limit uint64
	}{{16, 256 << 10}, {256, 4 << 20}} {
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		newMachine(t, c.cores)
		runtime.ReadMemStats(&ms1)
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > c.limit {
			t.Errorf("machine.New at %d cores allocated %d bytes, want at most %d", c.cores, got, c.limit)
		}
	}
}
