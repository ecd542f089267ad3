package machine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/htm"
	"chats/internal/mem"
	"chats/internal/sim"
)

// opWriter is WriterTracer plus one line per completed memory op, so a
// golden pins the cycle and value of every load and store as well as
// every transaction event.
type opWriter struct{ WriterTracer }

func (w opWriter) Op(cycle uint64, core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	tx := ""
	if inTx {
		tx = " tx"
	}
	fmt.Fprintf(w.W, "%10d core%-2d %s%s %v val=%d", cycle, core, op, tx, addr, val)
	if op == OpCAS {
		fmt.Fprintf(w.W, " new=%d ok=%v", val2, ok)
	}
	fmt.Fprintln(w.W)
}

// opRunEdgeWL strings long runs of Store and Work, the ops whose reply
// the thread reads only for an abort, between the ops whose reply it
// uses. Threads pair up as victim and killer: the killer's plain store
// to a line in the victim's read set kills the victim's transaction
// while one op of the run is in flight: the first (pair 0/1), a middle
// one (2/3), the last before Commit (4/5), or one deep inside a run of
// forty, longer than the thread's queue (6/7). The victims draw from
// tx.Rand between the ops and store what they drew, so a retry's values
// show whether the draws after the dying op were replayed. Thread 8
// writes more lines of one L1 set than it has ways, so it takes
// capacity aborts until its body runs on the fallback path (the lock,
// STM, or, under Power, the lock after the power token), and it ends on
// a plain Store, as the killers do. Every retry waits out a backoff
// Work before its Begin.
type opRunEdgeWL struct {
	hot  [4]mem.Addr // read by victim i, stored by its killer
	priv [4]mem.Addr // victim i's private line
	over mem.Addr    // thread 8's conflict range
}

// opRunKill is when each killer stores, in cycles after its start.
var opRunKill = [4]uint64{300, 560, 1000, 700}

const opRunOverLines = 14 // > 12 ways

func (w *opRunEdgeWL) Name() string { return "op-run-edges" }
func (w *opRunEdgeWL) Setup(wd *World, threads int) {
	for i := range w.hot {
		w.hot[i] = wd.Alloc.Lines(1)
		w.priv[i] = wd.Alloc.Lines(1)
	}
	w.over = wd.Alloc.Lines(1)
	wd.Alloc.Lines(opRunOverLines * 64)
}

func (w *opRunEdgeWL) Thread(ctx Ctx, tid int) {
	switch {
	case tid < 6 && tid%2 == 0:
		w.victim(ctx, tid/2)
	case tid == 6:
		w.longRun(ctx)
	case tid < 8:
		ctx.Work(opRunKill[tid/2])
		ctx.Store(w.hot[tid/2], uint64(tid))
	case tid == 8:
		w.overflow(ctx)
	}
}

// victim runs Load, then Work, Store, Work, Store, Work before Commit.
func (w *opRunEdgeWL) victim(ctx Ctx, i int) {
	ctx.Atomic(func(tx Tx) {
		v := tx.Load(w.hot[i])
		tx.Work(200)
		tx.Store(w.priv[i], v+tx.Rand().Uint64n(1000))
		tx.Work(200)
		tx.Store(w.priv[i].Plus(1), tx.Rand().Uint64n(1000))
		tx.Work(200)
	})
	ctx.Work(50)
}

// longRun posts forty ops between its Load and its Commit.
func (w *opRunEdgeWL) longRun(ctx Ctx) {
	ctx.Atomic(func(tx Tx) {
		tx.Load(w.hot[3])
		for j := 0; j < 20; j++ {
			tx.Store(w.priv[3].Plus(j%8), tx.Rand().Uint64n(1000))
			tx.Work(30)
		}
	})
}

func (w *opRunEdgeWL) overflow(ctx Ctx) {
	ctx.Atomic(func(tx Tx) {
		for j := 0; j < opRunOverLines; j++ {
			tx.Store(w.over+mem.Addr(j*setStride), tx.Rand().Uint64n(1000))
			tx.Work(5)
		}
	})
	ctx.Work(10)
	ctx.Store(w.over.Plus(1), 1)
}

func (w *opRunEdgeWL) Check(wd *World) error {
	if got := wd.Mem.ReadWord(w.over.Plus(1)); got != 1 {
		return fmt.Errorf("thread 8's last store reads %d, want 1", got)
	}
	return nil
}

// TestOpRunEdgesGolden pins, byte for byte, the WriterTracer text plus
// every memory op of opRunEdgeWL under the lock and STM fallback paths
// (baseline) and under Power, whose fallback releases the power token.
// Then it pins rmwEdgeWL's read-modify-writes: an add whose load or
// store dies in flight, one deep in a run longer than the queue, and
// begins that lose the race to the lock, on the lock and STM paths.
// Regenerate with go test -run TestOpRunEdgesGolden -update.
func TestOpRunEdgesGolden(t *testing.T) {
	var buf bytes.Buffer
	retryOnce := htm.Traits{Retries: 1}
	for _, c := range []struct {
		name     string
		policy   htm.Policy
		cores    int
		fallback FallbackKind
		w        Workload
	}{
		{"baseline", core.NewBaseline(), 9, FallbackLock, &opRunEdgeWL{}},
		{"baseline", core.NewBaseline(), 9, FallbackSTM, &opRunEdgeWL{}},
		{"power", core.NewPower(), 9, FallbackLock, &opRunEdgeWL{}},
		{"rmw-load, baseline retries=1", core.NewBaselineWith(retryOnce), 2, FallbackLock, &rmwEdgeWL{shape: "load", kill: 300}},
		{"rmw-store, baseline retries=1", core.NewBaselineWith(retryOnce), 2, FallbackLock, &rmwEdgeWL{shape: "store", kill: 200}},
		{"rmw-queue, baseline retries=1", core.NewBaselineWith(retryOnce), 2, FallbackLock, &rmwEdgeWL{shape: "queue", kill: 1000}},
		{"rmw-race, baseline retries=1", core.NewBaselineWith(retryOnce), 3, FallbackLock, &rmwEdgeWL{shape: "race"}},
		{"rmw-race, baseline retries=1", core.NewBaselineWith(retryOnce), 3, FallbackSTM, &rmwEdgeWL{shape: "race"}},
	} {
		cfg := testCfg()
		cfg.Cores = c.cores
		cfg.Fallback.Kind = c.fallback
		m, err := New(cfg, c.policy)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s, fallback %s\n", c.name, c.fallback)
		m.SetTracer(opWriter{WriterTracer{W: &buf}})
		stats, err := m.Run(c.w)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.name, c.fallback, err)
		}
		fmt.Fprintf(&buf, "cycles=%d commits=%d aborts=%d fallbacks=%d causes=%v\n",
			stats.Cycles, stats.Commits, stats.Aborts, stats.Fallbacks, stats.ByCause)
	}
	checkGolden(t, "op_run_edges.txt", buf.Bytes())
}

// storeVictimWL: thread 0's transaction loads hot, stores priv, runs
// after and works; thread 1 stores hot kill cycles into the run, which
// kills the transaction while its Store is in flight.
type storeVictimWL struct {
	hot, priv mem.Addr
	kill      uint64
	after     func(tx Tx)
}

func (w *storeVictimWL) Name() string { return "store-victim" }
func (w *storeVictimWL) Setup(wd *World, threads int) {
	w.hot = wd.Alloc.Lines(1)
	w.priv = wd.Alloc.Lines(1)
}
func (w *storeVictimWL) Thread(ctx Ctx, tid int) {
	switch tid {
	case 0:
		ctx.Atomic(func(tx Tx) {
			tx.Load(w.hot)
			tx.Store(w.priv, 1)
			w.after(tx)
			tx.Work(100)
		})
	case 1:
		ctx.Work(w.kill)
		ctx.Store(w.hot, 1)
	}
}
func (w *storeVictimWL) Check(*World) error { return nil }

// storeVictimKill lands thread 1's store while thread 0's Store misses.
const storeVictimKill = 340

// core0Log records core 0's transaction events and transactional ops.
type core0Log struct {
	NopTracer
	ev []string
}

func (l *core0Log) TxBegin(_ uint64, c, _ int, _ bool) { l.add(c, "begin") }
func (l *core0Log) TxCommit(_ uint64, c, _ int)        { l.add(c, "commit") }
func (l *core0Log) TxAbort(_ uint64, c int, _ htm.AbortCause) {
	l.add(c, "abort")
}
func (l *core0Log) Op(_ uint64, c int, op OpKind, inTx bool, _ mem.Addr, _, _ uint64, _ bool) {
	if inTx {
		l.add(c, op.String())
	}
}
func (l *core0Log) add(c int, ev string) {
	if c == 0 {
		l.ev = append(l.ev, ev)
	}
}

// runStoreVictim runs w on two baseline cores and returns core 0's log.
func runStoreVictim(w *storeVictimWL) (string, RunStats, error) {
	cfg := testCfg()
	cfg.Cores = 2
	m, err := New(cfg, core.NewBaseline())
	if err != nil {
		return "", RunStats{}, err
	}
	log := &core0Log{}
	m.SetTracer(log)
	stats, err := m.Run(w)
	return strings.Join(log.ev, " "), stats, err
}

// The first attempt's Load completes and its Store dies in flight.
const storeVictimLog = "begin load abort begin load store commit"

// TestPostedAbortReplaysRand: a body that draws from tx.Rand after a
// Store that dies in flight runs past the Store before the abort
// reaches it, but the retry draws what it would have had the Store
// stopped the body: the draw after the dead Store is rolled back, so
// the backoff takes that value again and the retry the next one.
func TestPostedAbortReplaysRand(t *testing.T) {
	var start sim.Rand
	var draws []uint64
	w := &storeVictimWL{kill: storeVictimKill, after: func(tx Tx) {
		if draws == nil {
			start = *tx.Rand()
		}
		draws = append(draws, tx.Rand().Uint64())
	}}
	log, stats, err := runStoreVictim(w)
	if err != nil {
		t.Fatal(err)
	}
	if log != storeVictimLog || stats.Aborts != 1 {
		t.Fatalf("core 0: %q, %d aborts; want %q, 1 abort", log, stats.Aborts, storeVictimLog)
	}
	// The first attempt drew the first value past start, and it was
	// rolled back: the backoff draws it again, and the retry the second.
	ref := start
	want := []uint64{ref.Uint64(), ref.Uint64()}
	if len(draws) != 2 || draws[0] != want[0] || draws[1] != want[1] {
		t.Fatalf("draws %x, want %x", draws, want)
	}
}

// TestPostedAbortThenPanicRetries: a body that panics after a Store
// that died in flight never reached the panic, so the attempt retries
// as an abort and the run succeeds.
func TestPostedAbortThenPanicRetries(t *testing.T) {
	panics := 0
	w := &storeVictimWL{kill: storeVictimKill, after: func(Tx) {
		if panics == 0 {
			panics++
			panic("past a dead Store")
		}
	}}
	log, stats, err := runStoreVictim(w)
	if err != nil {
		t.Fatal(err)
	}
	if log != storeVictimLog || stats.Aborts != 1 || panics != 1 {
		t.Fatalf("core 0: %q, %d aborts, %d panics; want %q, 1 abort, 1 panic",
			log, stats.Aborts, panics, storeVictimLog)
	}
}

// storeThenPanicWL: thread 0 works, stores (in a transaction if inTx)
// and panics.
type storeThenPanicWL struct {
	a    mem.Addr
	inTx bool
}

func (w *storeThenPanicWL) Name() string                 { return "store-then-panic" }
func (w *storeThenPanicWL) Setup(wd *World, threads int) { w.a = wd.Alloc.Lines(1) }
func (w *storeThenPanicWL) Thread(ctx Ctx, tid int) {
	if tid != 0 {
		return
	}
	if w.inTx {
		ctx.Atomic(func(tx Tx) {
			tx.Work(500)
			tx.Store(w.a, 1)
			panic("after the Store")
		})
	}
	ctx.Work(500)
	ctx.Store(w.a, 1)
	panic("after the Store")
}
func (w *storeThenPanicWL) Check(*World) error { return nil }

// storeCycle records the cycle of the last completed store.
type storeCycle struct {
	NopTracer
	at uint64
}

func (s *storeCycle) Op(cycle uint64, _ int, op OpKind, _ bool, _ mem.Addr, _, _ uint64, _ bool) {
	if op == OpStore {
		s.at = cycle
	}
}

// TestPostedOpsThenPanicFailsAtTheirCycle: a thread that panics after
// ops that complete still fails the run with its ThreadPanic, at the
// cycle its last Store completes, the cycle it reached the panic.
func TestPostedOpsThenPanicFailsAtTheirCycle(t *testing.T) {
	for _, inTx := range []bool{false, true} {
		cfg := testCfg()
		cfg.Cores = 2
		m, err := New(cfg, core.NewBaseline())
		if err != nil {
			t.Fatal(err)
		}
		sc := &storeCycle{}
		m.SetTracer(sc)
		stats, err := m.Run(&storeThenPanicWL{inTx: inTx})
		var tp *ThreadPanic
		if !errors.As(err, &tp) || tp.Thread != 0 || tp.Value != "after the Store" {
			t.Fatalf("inTx %v: Run error = %v, want thread 0's ThreadPanic", inTx, err)
		}
		if sc.at < 500 || stats.Cycles != sc.at {
			t.Errorf("inTx %v: run failed at cycle %d, the Store completed at %d (want equal, >= 500)",
				inTx, stats.Cycles, sc.at)
		}
	}
}

// postedHaltWL keeps posted ops in flight when the run halts: thread 0
// posts a long Work and then panics or loads (in a transaction if
// inTx); the others loop over Stores, Works and a Load.
type postedHaltWL struct {
	a          mem.Addr
	inTx, load bool
}

func (w *postedHaltWL) Name() string                 { return "posted-halt" }
func (w *postedHaltWL) Setup(wd *World, threads int) { w.a = wd.Alloc.Lines(1) }
func (w *postedHaltWL) Thread(ctx Ctx, tid int) {
	if tid == 0 {
		end := func(tx Tx) {
			tx.Work(1_000_000)
			if w.load {
				tx.Load(w.a)
			}
			panic("after the Work")
		}
		if w.inTx {
			ctx.Atomic(end)
		} else {
			end(ctxTx{ctx})
		}
	}
	for {
		for i := 0; i < 20; i++ {
			ctx.Store(w.a.Plus(tid%8), uint64(i))
			ctx.Work(7)
		}
		ctx.Load(w.a)
	}
}
func (w *postedHaltWL) Check(*World) error { return nil }

// ctxTx runs a Tx-shaped body on a Ctx.
type ctxTx struct{ Ctx }

func (ctxTx) Fallback() bool { return false }

// TestPostedOpsHaltLeaksNoThread: a run that halts while threads have
// posted ops in flight (some of them settling those ops under a panic,
// in or out of a transaction) unwinds every thread.
func TestPostedOpsHaltLeaksNoThread(t *testing.T) {
	for _, c := range []struct{ inTx, load bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		cfg := testCfg()
		cfg.Cores = 4
		cfg.CycleLimit = 20_000
		m, err := New(cfg, core.NewCHATS())
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		if _, err := m.Run(&postedHaltWL{inTx: c.inTx, load: c.load}); err == nil {
			t.Fatalf("%+v: the run ended without the cycle limit", c)
		}
		// Fewer is fine: an earlier test's goroutine may exit meanwhile.
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%+v: goroutines: %d before Run, %d after", c, before, after)
		}
	}
}

// rmwEdgeWL runs read-modify-writes at the edges of the op queue. In
// the kill shapes thread 0's transaction reads line x, then adds into
// lines of its own, and thread 1's plain store to x, kill cycles after
// its start, kills the transaction: while the first add's load is in
// flight ("load"), while its store upgrades a line thread 1 shares
// ("store"), or deep inside a run of twelve adds, longer than the
// thread's queue ("queue"). Every kill retries through the abort
// acknowledgement and a backoff Work. In the "race" shape every thread
// adds into one word, and after a retry the lock fallback, so some
// begins find the lock taken by the time they subscribe to it.
type rmwEdgeWL struct {
	shape string
	kill  uint64
	x, y  mem.Addr
	run   mem.Addr
}

func (w *rmwEdgeWL) Name() string { return "rmw-" + w.shape }
func (w *rmwEdgeWL) Setup(wd *World, threads int) {
	w.x = wd.Alloc.Lines(1)
	w.y = wd.Alloc.Lines(1)
	w.run = wd.Alloc.Lines(12)
}

func (w *rmwEdgeWL) Thread(ctx Ctx, tid int) {
	if w.shape == "race" {
		for i := 0; i < 3; i++ {
			ctx.Atomic(func(tx Tx) {
				tx.Work(25)
				tx.Add(w.y, 1)
				tx.Work(35)
			})
			ctx.Work(20)
		}
		return
	}
	if tid == 1 {
		if w.shape == "store" {
			ctx.Load(w.y)
		}
		ctx.Work(w.kill)
		ctx.Store(w.x, 1)
		return
	}
	ctx.Atomic(func(tx Tx) {
		v := tx.Load(w.x)
		tx.Add(w.y, v+1)
		if w.shape == "queue" {
			for j := 0; j < 12; j++ {
				tx.Add(w.run.Plus(j*8), uint64(j))
				tx.Work(3)
			}
		}
		tx.Work(40)
	})
}

func (w *rmwEdgeWL) Check(wd *World) error { return nil }

// fullQueueBeginWL: every thread posts seven Works before each atomic
// add, so each begin is the eighth op and hands over a full queue.
type fullQueueBeginWL struct {
	a       mem.Addr
	threads int
}

const fullQueueBeginIters = 4

func (w *fullQueueBeginWL) Name() string { return "full-queue-begin" }
func (w *fullQueueBeginWL) Setup(wd *World, threads int) {
	w.a = wd.Alloc.LineAligned(1)
	w.threads = threads
}
func (w *fullQueueBeginWL) Thread(ctx Ctx, tid int) {
	for i := 0; i < fullQueueBeginIters; i++ {
		for j := 0; j < postCap-1; j++ {
			ctx.Work(1)
		}
		ctx.Atomic(func(tx Tx) { tx.Add(w.a, 1) })
	}
}
func (w *fullQueueBeginWL) Check(wd *World) error {
	if v, want := wd.Mem.ReadWord(w.a), uint64(w.threads*fullQueueBeginIters); v != want {
		return fmt.Errorf("a = %d, want %d", v, want)
	}
	return nil
}

// lostBegins counts aborts not preceded by a begin on their core: begins
// whose lock subscription died.
type lostBegins struct {
	NopTracer
	begun map[int]bool
	n     int
}

func (l *lostBegins) TxBegin(_ uint64, c, _ int, _ bool) { l.begun[c] = true }
func (l *lostBegins) TxCommit(_ uint64, c, _ int)        { l.begun[c] = false }
func (l *lostBegins) TxAbort(_ uint64, c int, _ htm.AbortCause) {
	if !l.begun[c] {
		l.n++
	}
	l.begun[c] = false
}

// TestPostedBeginLostAtFullQueue: a begin whose post hands over a full
// queue, and whose lock subscription then dies (here, of a spurious
// abort), unwinds like any lost begin: Atomic begins again and the run
// completes.
func TestPostedBeginLostAtFullQueue(t *testing.T) {
	cfg := withFaults(t, coresCfg(2), "spurious:p=0.5")
	m, err := New(cfg, core.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	lost := &lostBegins{begun: map[int]bool{}}
	m.SetTracer(lost)
	if _, err := m.Run(&fullQueueBeginWL{}); err != nil {
		t.Fatal(err)
	}
	if lost.n == 0 {
		t.Fatal("no begin lost its lock subscription")
	}
}
