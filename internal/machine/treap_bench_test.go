package machine_test

import (
	"math"
	"runtime"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/sim"
	"chats/internal/structures"
)

// treapInsertWL is one thread making n treap inserts outside any
// transaction. It refills a treap of treapBatch records, emptying it
// between batches, so the tree and the simulated memory stay small
// however large n is.
type treapInsertWL struct {
	n     int
	tr    *structures.Treap
	nodes [treapBatch]mem.Addr
}

const treapBatch = 256

func (w *treapInsertWL) Name() string { return "treap-insert" }
func (w *treapInsertWL) Setup(wd *machine.World, threads int) {
	w.tr = structures.NewTreap(wd.Alloc)
	for i := range w.nodes {
		w.nodes[i] = wd.Alloc.LineAligned(structures.TreapNodeWords)
	}
}
func (w *treapInsertWL) Thread(ctx machine.Ctx, tid int) {
	r := sim.NewRand(1)
	for i := 0; i < w.n; i++ {
		j := i % treapBatch
		if j == 0 {
			ctx.Store(w.tr.Root, 0)
		}
		w.tr.Insert(ctx, w.nodes[j], r.Uint64n(1<<20), uint64(i), r.Uint64())
	}
}
func (w *treapInsertWL) Check(*machine.World) error { return nil }

// runTreapInserts makes n inserts on a one-core baseline machine.
func runTreapInserts(tb testing.TB, n int) {
	tb.Helper()
	cfg := machine.DefaultConfig()
	cfg.Cores = 1
	cfg.CycleLimit = math.MaxUint64
	m, err := machine.New(cfg, core.NewBaseline())
	if err != nil {
		tb.Fatal(err)
	}
	if b, ok := tb.(*testing.B); ok {
		b.ResetTimer()
	}
	if _, err := m.Run(&treapInsertWL{n: n}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTreapInsert times one Treap.Insert into a treap of up to 256
// records: a descent walk, a climb walk per rotation plus one, and the
// stores between them. The walkers come from pools, so an insert
// allocates nothing. Run as:
//
//	go test -run '^$' -bench TreapInsert -benchmem ./internal/machine
func BenchmarkTreapInsert(b *testing.B) {
	b.ReportAllocs()
	runTreapInserts(b, b.N)
}

// TestTreapInsertZeroAllocs: an insert allocates nothing, so a run with
// 10,000 more inserts costs no more mallocs than a 1,000-insert run,
// which has already touched every record and grown the walkers' path.
func TestTreapInsertZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool entries, so pooled walkers are reallocated")
	}
	// As in TestThreadHandoffZeroAllocs: one P keeps the goroutine
	// cache warm, and each size keeps its fewest mallocs of three runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(n int) uint64 {
		fewest := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			runTreapInserts(t, n)
			runtime.ReadMemStats(&ms1)
			fewest = min(fewest, ms1.Mallocs-ms0.Mallocs)
		}
		return fewest
	}
	short, long := mallocs(1_000), mallocs(11_000)
	if long > short {
		t.Errorf("10,000 extra inserts allocated %d times (1,000: %d mallocs, 11,000: %d)",
			long-short, short, long)
	}
}
