package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/machine"
	"chats/internal/mem"
	"chats/internal/testutil"
	"chats/internal/workloads"
)

// TestPostedResumeCounts pins how many times a run resumes its thread
// coroutines, per cell, for the benchmarks whose atomic blocks are
// read-modify-writes (kmeans, ssca2, yada), for cadd, whose block uses
// its load's value, and for intruder, whose queue ops and treap inserts
// run their load chains as walks. A resume is the host cost the
// simulator pays for every op whose reply the thread reads; posting an
// op or walking a load chain removes resumes and leaves every event,
// so the pins may only fall while the statistics stay the same; the
// cycles are pinned beside them.
func TestPostedResumeCounts(t *testing.T) {
	type pin struct{ cycles, resumes uint64 }
	want := map[string]pin{
		"baseline/kmeans-h/c16": {21999, 1259},
		"baseline/kmeans-l/c16": {7575, 743},
		"baseline/ssca2/c16":    {3738, 159},
		"baseline/yada/c16":     {31797, 3578},
		"baseline/cadd/c16":     {30072, 934},
		"chats/kmeans-h/c16":    {6768, 655},
		"chats/kmeans-l/c16":    {4638, 532},
		"chats/ssca2/c16":       {3301, 147},
		"chats/yada/c16":        {20408, 2428},
		"chats/cadd/c16":        {23337, 797},
		"baseline/intruder/c16": {49499, 1717},
		"chats/intruder/c16":    {14890, 908},
		"baseline/kmeans-h/c64": {160327, 5881},
		"baseline/kmeans-l/c64": {39336, 4157},
		"baseline/ssca2/c64":    {5785, 782},
		"baseline/yada/c64":     {277652, 21588},
		"baseline/cadd/c64":     {155449, 2267},
		"chats/kmeans-h/c64":    {89967, 5517},
		"chats/kmeans-l/c64":    {9585, 2784},
		"chats/ssca2/c64":       {4476, 664},
		"chats/yada/c64":        {66103, 19523},
		"chats/cadd/c64":        {236430, 5824},
		"baseline/intruder/c64": {133339, 2146},
		"chats/intruder/c64":    {194999, 5255},
	}
	for _, cores := range []int{16, 64} {
		for _, kind := range []core.Kind{core.KindBaseline, core.KindCHATS} {
			for _, bench := range []string{"kmeans-h", "kmeans-l", "ssca2", "yada", "cadd", "intruder"} {
				name := fmt.Sprintf("%s/%s/c%d", kind, bench, cores)
				w, err := workloads.New(bench, workloads.Tiny)
				if err != nil {
					t.Fatal(err)
				}
				cfg := machine.DefaultConfig()
				cfg.Cores = cores
				m := testutil.Machine(t, cfg, testutil.Policy(t, kind))
				st, err := m.Run(w)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := (pin{st.Cycles, m.Resumes()}); got != want[name] {
					t.Errorf("%s: %d cycles, %d resumes; want %d, %d",
						name, got.cycles, got.resumes, want[name].cycles, want[name].resumes)
				}
			}
		}
	}
}

// loadStoreWL runs a workload whose adds are issued as Store(Load()+d),
// each load suspending the thread, as they were before Add was posted.
type loadStoreWL struct{ machine.Workload }

func (w loadStoreWL) Thread(ctx machine.Ctx, tid int) {
	w.Workload.Thread(loadStoreCtx{ctx}, tid)
}

type loadStoreCtx struct{ machine.Ctx }

func (c loadStoreCtx) Add(a mem.Addr, d uint64) { c.Store(a, c.Load(a)+d) }
func (c loadStoreCtx) Atomic(body func(machine.Tx)) {
	c.Ctx.Atomic(func(tx machine.Tx) { body(loadStoreTx{tx}) })
}

type loadStoreTx struct{ machine.Tx }

func (tx loadStoreTx) Add(a mem.Addr, d uint64) { tx.Store(a, tx.Load(a)+d) }

// plainAddWL adds outside Atomic, which no benchmark does: each thread
// adds to its own word and to a word every thread shares, between
// transactions that add to the shared word too.
type plainAddWL struct {
	shared, priv mem.Addr
	threads      int
}

func (w *plainAddWL) Name() string { return "plain-add" }
func (w *plainAddWL) Setup(wd *machine.World, threads int) {
	w.shared = wd.Alloc.Lines(1)
	w.priv = wd.Alloc.Lines(threads)
	w.threads = threads
}
func (w *plainAddWL) Thread(ctx machine.Ctx, tid int) {
	own := w.priv + mem.Addr(tid*mem.LineSize)
	for i := 0; i < 20; i++ {
		ctx.Add(own, uint64(i))
		ctx.Add(w.shared, 1)
		ctx.Work(ctx.Rand().Uint64n(40))
		ctx.Atomic(func(tx machine.Tx) { tx.Add(w.shared, 2) })
	}
}

// Check pins the private words only: plain adds to the shared word are
// not atomic, so concurrent ones may overwrite each other.
func (w *plainAddWL) Check(wd *machine.World) error {
	for tid := 0; tid < w.threads; tid++ {
		if got := wd.Mem.ReadWord(w.priv + mem.Addr(tid*mem.LineSize)); got != 190 {
			return fmt.Errorf("thread %d private word = %d, want 190", tid, got)
		}
	}
	return nil
}

// TestPostedAddMatchesLoadStore: a posted Add is the load and the store
// of Store(a, Load(a)+d), with the same events at the same cycles. Every
// benchmark that adds runs both ways, on the lock and the STM fallback,
// and must produce the same statistics and the same cycle-stamped
// transaction and op stream, with fewer resumes.
func TestPostedAddMatchesLoadStore(t *testing.T) {
	run := func(kind core.Kind, fb machine.FallbackKind, w machine.Workload) (string, uint64) {
		cfg := machine.DefaultConfig()
		cfg.Fallback.Kind = fb
		m := testutil.Machine(t, cfg, testutil.Policy(t, kind))
		var b strings.Builder
		m.SetTracer(opText{machine.WriterTracer{W: &b}})
		st, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v\n%s", st, b.String()), m.Resumes()
	}
	for _, bench := range []string{"kmeans-h", "kmeans-l", "ssca2", "yada", "randprog", "plain-add"} {
		for _, kind := range []core.Kind{core.KindBaseline, core.KindCHATS} {
			for _, fb := range []machine.FallbackKind{machine.FallbackLock, machine.FallbackSTM} {
				name := fmt.Sprintf("%s/%s/%s", kind, bench, fb)
				newWL := func() machine.Workload {
					if bench == "plain-add" {
						return &plainAddWL{}
					}
					w, err := workloads.New(bench, workloads.Tiny)
					if err != nil {
						t.Fatal(err)
					}
					return w
				}
				posted, postedRes := run(kind, fb, newWL())
				yielded, yieldedRes := run(kind, fb, loadStoreWL{newWL()})
				if posted != yielded {
					t.Errorf("%s: posted Add and Store(Load()+d) differ", name)
				}
				if postedRes >= yieldedRes {
					t.Errorf("%s: %d resumes with Add, %d without", name, postedRes, yieldedRes)
				}
			}
		}
	}
}

// opText is WriterTracer plus one line per completed memory op.
type opText struct{ machine.WriterTracer }

func (w opText) Op(cycle uint64, core int, op machine.OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	fmt.Fprintf(w.W, "%d core%d %s %v %v %d %d %v\n", cycle, core, op, inTx, addr, val, val2, ok)
}
