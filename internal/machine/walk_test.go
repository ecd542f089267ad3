package machine

import (
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"chats/internal/core"
	"chats/internal/mem"
)

// chainWalker follows a chain of next pointers to its nil end, summing
// the node values on the way (a node is {next, val} on its own line).
type chainWalker struct {
	node    mem.Addr
	atVal   bool
	sum     uint64
	visited int
}

func (w *chainWalker) Next(v uint64) (mem.Addr, bool) {
	if w.atVal {
		w.sum += v
		w.atVal = false
		return w.node, true // the next pointer, loaded from node
	}
	if v == 0 {
		return 0, false
	}
	w.node = mem.Addr(v)
	w.visited++
	w.atVal = true
	return w.node.Plus(1), true
}

// walkChainWL: every thread walks a shared chain, outside and inside a
// transaction, then bumps the value of one node. With loop set it walks
// with a thread-side Load loop instead of Walk.
type walkChainWL struct {
	nodes, iters int
	loop         bool
	head         mem.Addr
	sums         []uint64
}

func (w *walkChainWL) Name() string { return "chain" }
func (w *walkChainWL) Setup(wd *World, threads int) {
	w.head = wd.Alloc.LineAligned(1)
	w.sums = make([]uint64, threads)
	prev := w.head
	for i := 0; i < w.nodes; i++ {
		n := wd.Alloc.LineAligned(2)
		wd.Mem.WriteWord(prev, uint64(n))
		wd.Mem.WriteWord(n.Plus(1), uint64(i))
		prev = n
	}
}

type loader interface {
	Load(a mem.Addr) uint64
	Walk(first mem.Addr, w mem.Walker)
}

func (w *walkChainWL) walk(m loader, cw *chainWalker) {
	*cw = chainWalker{}
	if !w.loop {
		m.Walk(w.head, cw)
		return
	}
	for a, more := w.head, true; more; {
		a, more = cw.Next(m.Load(a))
	}
}

func (w *walkChainWL) Thread(ctx Ctx, tid int) {
	cw := new(chainWalker)
	for i := 0; i < w.iters; i++ {
		w.walk(ctx, cw)
		w.sums[tid] += cw.sum
		ctx.Atomic(func(tx Tx) {
			w.walk(tx, cw)
			if cw.visited != w.nodes {
				panic(fmt.Sprintf("walked %d nodes, want %d", cw.visited, w.nodes))
			}
			tx.Store(cw.node.Plus(1), tx.Load(cw.node.Plus(1))+1)
		})
		ctx.Work(10)
	}
}

func (w *walkChainWL) Check(wd *World) error { return nil }

// opLog records every completed workload op with its cycle.
type opLog struct {
	WriterTracer
	ops []string
}

func (l *opLog) Op(cycle uint64, core int, op OpKind, inTx bool, addr mem.Addr, val, val2 uint64, ok bool) {
	l.ops = append(l.ops, fmt.Sprintf("%d core%d %v tx=%v %v %d %d %v", cycle, core, op, inTx, addr, val, val2, ok))
}

// TestWalkMatchesLoadLoop: an engine-time walk, plain and inside
// transactions that abort under contention, gives the run, its values
// and its cycle-stamped op stream of a thread-side Load loop.
func TestWalkMatchesLoadLoop(t *testing.T) {
	run := func(loop bool) (RunStats, []uint64, []string) {
		m, err := New(testCfg(), core.NewCHATS())
		if err != nil {
			t.Fatal(err)
		}
		log := &opLog{WriterTracer: WriterTracer{W: new(strings.Builder)}}
		m.SetTracer(log)
		w := &walkChainWL{nodes: 12, iters: 6, loop: loop}
		st, err := m.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return st, w.sums, append(log.ops, log.W.(*strings.Builder).String())
	}
	st, sums, ops := run(false)
	wantSt, wantSums, wantOps := run(true)
	if st != wantSt {
		t.Errorf("stats differ:\nwalk: %+v\nloop: %+v", st, wantSt)
	}
	if st.Aborts == 0 {
		t.Error("no aborts: the test no longer covers an abort mid-walk")
	}
	if fmt.Sprint(sums) != fmt.Sprint(wantSums) {
		t.Errorf("walk sums %v, loop sums %v", sums, wantSums)
	}
	if len(ops) != len(wantOps) {
		t.Fatalf("walk traced %d ops, loop %d", len(ops), len(wantOps))
	}
	for i := range ops {
		if ops[i] != wantOps[i] {
			t.Fatalf("op %d: walk %q, loop %q", i, ops[i], wantOps[i])
		}
	}
}

// badWalker fails at engine time: its Next panics, or with tx set calls
// back into the transaction.
type badWalker struct{ tx Tx }

func (b *badWalker) Next(uint64) (mem.Addr, bool) {
	if b.tx != nil {
		b.tx.Load(0)
		return 0, false
	}
	panic("walker bug")
}

// badWalkWL is the counter workload with one thread whose walker fails,
// inside a transaction or, with stm set, on the STM fallback path.
type badWalkWL struct {
	counterWL
	bad           int
	callback, stm bool
}

func (w *badWalkWL) Thread(ctx Ctx, tid int) {
	if tid != w.bad {
		w.counterWL.Thread(ctx, tid)
		return
	}
	ctx.Work(100) // let the others get going
	body := func(tx Tx) {
		b := &badWalker{}
		if w.callback {
			b.tx = tx
		}
		tx.Walk(w.addr, b)
	}
	if w.stm {
		ctx.(*tctx).runFallback(body)
		return
	}
	ctx.Atomic(body)
}

// TestWalkerFailureFailsRun: a walker whose Next panics, or calls back
// into Tx, fails only its own run with a *ThreadPanic naming the
// thread, and every thread coroutine is unwound. A call-back panic
// names the cycle and core. On the STM path Next
// runs on the thread, and the same contract holds.
func TestWalkerFailureFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name          string
		callback, stm bool
		want          string // regexp the panic value must match
	}{
		{"panic", false, false, "^walker bug$"},
		{"callback", true, false, `^machine: cycle [1-9]\d* core 3: a Walker's Next called back into Ctx or Tx$`},
		{"stm-panic", false, true, "^walker bug$"},
		{"stm-callback", true, true, `^machine: cycle [1-9]\d* core 3: a Walker's Next called back into Ctx or Tx$`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			if tc.stm {
				cfg.Fallback.Kind = FallbackSTM
			}
			m, err := New(cfg, core.NewCHATS())
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			_, err = m.Run(&badWalkWL{counterWL: counterWL{iters: 30}, bad: 3, callback: tc.callback, stm: tc.stm})
			var tp *ThreadPanic
			if !errors.As(err, &tp) {
				t.Fatalf("Run error = %v, want a *ThreadPanic", err)
			}
			if tp.Thread != 3 || !regexp.MustCompile(tc.want).MatchString(fmt.Sprint(tp.Value)) || len(tp.Stack) == 0 {
				t.Errorf("ThreadPanic = {Thread: %d, Value: %v, %d stack bytes}, want thread 3, %q, a stack",
					tp.Thread, tp.Value, len(tp.Stack), tc.want)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("goroutines: %d before Run, %d after", before, after)
			}
			// The machine's sibling runs are unaffected.
			runWL(t, core.KindCHATS, &counterWL{iters: 30}, testCfg())
		})
	}
}

// hookPanicWL panics in Setup or in Check.
type hookPanicWL struct {
	counterWL
	hook string
}

func (w *hookPanicWL) Setup(wd *World, threads int) {
	if w.hook == "Setup" {
		panic("setup bug")
	}
	w.counterWL.Setup(wd, threads)
}

func (w *hookPanicWL) Check(wd *World) error {
	if w.hook == "Check" {
		panic("check bug")
	}
	return w.counterWL.Check(wd)
}

func runHookPanic(t *testing.T, hook string) *HookPanic {
	t.Helper()
	m, err := New(testCfg(), core.NewCHATS())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(&hookPanicWL{counterWL: counterWL{iters: 5}, hook: hook})
	var hp *HookPanic
	if !errors.As(err, &hp) {
		t.Fatalf("Run error = %v, want a *HookPanic", err)
	}
	if hp.Hook != hook || len(hp.Stack) == 0 {
		t.Errorf("HookPanic = {Hook: %q, Value: %v, %d stack bytes}, want hook %q and a stack",
			hp.Hook, hp.Value, len(hp.Stack), hook)
	}
	return hp
}

// TestSetupPanicFailsRun: a panicking Workload.Setup fails the run with
// a *HookPanic instead of escaping Machine.Run.
func TestSetupPanicFailsRun(t *testing.T) {
	if hp := runHookPanic(t, "Setup"); hp.Value != "setup bug" {
		t.Errorf("HookPanic.Value = %v, want \"setup bug\"", hp.Value)
	}
}

// TestCheckPanicFailsRun: a panicking Workload.Check fails the run with
// a *HookPanic instead of escaping Machine.Run.
func TestCheckPanicFailsRun(t *testing.T) {
	if hp := runHookPanic(t, "Check"); hp.Value != "check bug" {
		t.Errorf("HookPanic.Value = %v, want \"check bug\"", hp.Value)
	}
}
